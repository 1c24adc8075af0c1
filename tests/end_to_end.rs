//! Cross-crate invariants exercised on whole cluster runs.

use std::time::Duration;

use cvm_repro::dsm::{
    Cluster, DetectConfig, DsmConfig, Protocol, RecoveryPolicy, RunError, RunReport,
};
use cvm_repro::net::TrafficClass;
use cvm_repro::race::OverlapStrategy;
use cvm_testkit::{
    assert_equivalent, assert_matches, assert_same_report, race_lines, seeded, Detection, Fault,
    Reference, Scenario, Wire, OP_DEADLINE,
};

/// Every overlap strategy yields identical race sets on the same
/// deterministic program.
#[test]
fn overlap_strategies_agree_end_to_end() {
    let run = |overlap: OverlapStrategy| {
        let mut cfg = DsmConfig::new(3);
        cfg.detect.overlap = overlap;
        Cluster::run(
            cfg,
            |alloc| alloc.alloc("arr", 8 * 64).unwrap(),
            |h, &arr| {
                // Proc p writes words p, p+8, ... and reads word (p+1)*2:
                // a deterministic mix of races and false sharing.
                let me = h.proc() as u64;
                for k in 0..8u64 {
                    h.write(arr.word(me + k * 8), me);
                }
                let _ = h.read(arr.word((me + 1) * 2));
                h.barrier();
            },
        )
        .expect("cluster run")
    };
    let reference = run(OverlapStrategy::Quadratic);
    let mut ref_addrs = reference.races.distinct_addrs();
    ref_addrs.sort();
    for strategy in [
        OverlapStrategy::Auto,
        OverlapStrategy::SortedMerge,
        OverlapStrategy::PageBitmap,
    ] {
        let got = run(strategy);
        let mut addrs = got.races.distinct_addrs();
        addrs.sort();
        assert_eq!(addrs, ref_addrs, "{strategy:?} diverged");
    }
}

/// The same racy program under both protocols reports the same racy
/// addresses.
#[test]
fn protocols_agree_on_races() {
    let run = |protocol: Protocol| {
        let mut cfg = DsmConfig::new(2);
        cfg.protocol = protocol;
        Cluster::run(
            cfg,
            |alloc| alloc.alloc("xy", 16).unwrap(),
            |h, &xy| {
                if h.proc() == 0 {
                    h.write(xy, 1);
                    let _ = h.read(xy.word(1));
                } else {
                    h.write(xy.word(1), 2);
                    let _ = h.read(xy);
                }
                h.barrier();
            },
        )
        .expect("cluster run")
    };
    let sw = run(Protocol::SingleWriter);
    let mw = run(Protocol::MultiWriter);
    assert_eq!(sw.races.distinct_addrs(), mw.races.distinct_addrs());
    assert_eq!(sw.races.distinct_addrs().len(), 2);
}

/// The detector's bandwidth cost is visible and bounded: read notices and
/// bitmaps exist only with detection on, and page data dominates both.
#[test]
fn traffic_class_accounting_is_sane() {
    let run = |detect: DetectConfig| {
        let mut cfg = DsmConfig::new(4);
        cfg.detect = detect;
        Cluster::run(
            cfg,
            |alloc| alloc.alloc_page_aligned("grid", 4096 * 4).unwrap(),
            |h, &grid| {
                let me = h.proc() as u64;
                for k in 0..64 {
                    h.write(grid.offset(me * 4096).word(k), k);
                }
                h.barrier();
                let next = (me + 1) % h.nprocs() as u64;
                for k in 0..64 {
                    let _ = h.read(grid.offset(next * 4096).word(k));
                }
                h.barrier();
            },
        )
        .expect("cluster run")
    };
    let on = run(DetectConfig::on());
    assert!(on.net.class_bytes(TrafficClass::ReadNotice) > 0);
    assert!(on.net.class_bytes(TrafficClass::Data) > 0);
    let off = run(DetectConfig::off());
    assert_eq!(off.net.class_bytes(TrafficClass::ReadNotice), 0);
    assert_eq!(off.net.class_bytes(TrafficClass::Bitmap), 0);
    // Both runs move the same page data.
    assert_eq!(
        on.net.class_bytes(TrafficClass::Data),
        off.net.class_bytes(TrafficClass::Data)
    );
}

/// Virtual-time *accounting* is deterministic for deterministic
/// (barrier-only) programs: the schedule-free projection, per-node cost
/// categories, traffic and detector statistics among it, reproduces
/// exactly.  The end-to-end critical path picks up a few percent of jitter
/// from service-thread interleaving (see `cvm_dsm::simtime`), so it is only
/// checked to a tolerance.
#[test]
fn virtual_time_is_reproducible() {
    let run = || {
        Cluster::run(
            DsmConfig::new(4),
            |alloc| alloc.alloc_page_aligned("g", 4096 * 4).unwrap(),
            |h, &g| {
                let me = h.proc() as u64;
                for i in 0..128 {
                    h.write(g.offset(me * 4096).word(i % 512), i);
                }
                h.barrier();
                let next = (me + 1) % 4;
                for i in 0..128 {
                    let _ = h.read(g.offset(next * 4096).word(i % 512));
                }
                h.barrier();
            },
        )
        .expect("cluster run")
    };
    let a = run();
    let b = run();
    // Each process writes only its own page.
    assert_same_report("attributed costs must match", &a, &b, false);
    let (ta, tb) = (a.virtual_cycles() as f64, b.virtual_cycles() as f64);
    // The tolerance must absorb worst-case scheduling skew: on an
    // oversubscribed single-core host (e.g. CI running test binaries in
    // parallel) the service threads of the two runs interleave very
    // differently, and divergence beyond 20% has been observed while the
    // attributed totals above still match exactly.
    assert!(
        (ta - tb).abs() / ta.max(tb) < 0.35,
        "critical path diverged beyond jitter: {ta} vs {tb}"
    );
}

/// Memory accounting: the segment map records what setup allocated, and
/// race reports symbolize through it.
#[test]
fn segment_map_reflects_setup() {
    let report = Cluster::run(
        DsmConfig::new(2),
        |alloc| {
            let a = alloc.alloc("alpha", 100).unwrap();
            let _b = alloc.alloc("beta", 256).unwrap();
            a
        },
        |h, &a| {
            h.write(a, h.proc() as u64);
            h.barrier();
        },
    )
    .expect("cluster run");
    let names: Vec<&str> = report
        .segments
        .segments()
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(names, vec!["alpha", "beta"]);
    assert!(report.segments.used_bytes() >= 360);
    assert_eq!(report.races.len(), 1);
    assert!(report.races.reports()[0]
        .render(&report.segments)
        .contains("alpha"));
}

/// Consolidation (§6.3) and barrier detection find the same race in a
/// lock-only program.
#[test]
fn consolidation_equals_barrier_detection() {
    let run = |consolidate: bool| {
        Cluster::run(
            DsmConfig::new(2),
            |alloc| alloc.alloc("x", 8).unwrap(),
            |h, &x| {
                h.write(x, h.proc() as u64 + 1);
                if consolidate {
                    h.consolidate();
                } else {
                    h.barrier();
                }
            },
        )
        .expect("cluster run")
    };
    let via_barrier = run(false);
    let via_consolidation = run(true);
    assert_eq!(
        via_barrier.races.distinct_addrs(),
        via_consolidation.races.distinct_addrs()
    );
}

// ---------------------------------------------------------------------------
// The equivalence matrices.
//
// Every cell runs `racy_epochs_body` on three processes and must report
// races byte-identical to its `cvm_testkit` reference: the same program on
// perfect channels, without faults, under the serial synchronous master.
// Pipelined mode defers each epoch's detection off the barrier critical
// path and delivers its reports one release late.  Under `Recover`, a dead
// master's seat moves to the lowest-numbered survivor (a `MasterHandoff`
// round pins the seat and the resume epoch), and a transient partition is
// either bridged by retransmission or, when it outlasts the attempt,
// deposes the master under a higher term fenced by a strict majority, the
// deposed node rejoining from the agreed cut.  Virtual time is never
// compared: when costs are charged is exactly what these modes change.
// ---------------------------------------------------------------------------

const PROTOCOLS: [Protocol; 2] = [Protocol::SingleWriter, Protocol::MultiWriter];

/// A deterministic barrier-only program racing in every one of 4 epochs:
/// each process owns a page-sized stripe but also writes a shared clash
/// word per epoch (true races) and straddles a neighbour's words (false
/// sharing the bitmap comparison must discard).
fn racy_epochs_body(h: &cvm_repro::dsm::ProcHandle, arr: &cvm_repro::page::GAddr) {
    let me = h.proc() as u64;
    let n = h.nprocs() as u64;
    // Recovery-aware: a restored process skips checkpointed phases, so the
    // killed runs report the same epochs as the clean ones.
    let mut epochs = h.epochs();
    for epoch in 0..4u64 {
        epochs.step(|| {
            for k in 0..24u64 {
                h.write(arr.word(me * 512 + (epoch * 24 + k) % 512), epoch);
            }
            // All processes collide on one word per epoch...
            h.write(arr.word(n * 512 + epoch), me);
            // ...and read the next process's stripe (ordered by the
            // previous barrier: concurrent only in epoch 0's interval).
            let _ = h.read(arr.word(((me + 1) % n) * 512 + epoch));
        });
    }
}

fn run_racy_epochs(cfg: DsmConfig) -> Result<RunReport, RunError> {
    Cluster::run(
        cfg,
        |alloc| alloc.alloc_page_aligned("arr", 4096 * 4).unwrap(),
        racy_epochs_body,
    )
}

/// A cell that checkpoints every barrier and recovers over the fast wire,
/// whose seed `CVM_SEED` moves.
fn recovering(protocol: Protocol, detection: Detection, seed: u64, faults: Vec<Fault>) -> Scenario {
    Scenario {
        protocol,
        detection,
        recovery: RecoveryPolicy::Recover { max_attempts: 3 },
        wire: Wire::Fast(seeded(seed)),
        faults,
        ..Scenario::new(3)
    }
}

/// Clean runs: pipelined reports are byte-identical to synchronous ones,
/// and the pipeline actually engages.
#[test]
fn pipelined_matches_synchronous_clean() {
    for protocol in PROTOCOLS {
        let cell = Scenario {
            protocol,
            detection: Detection::Pipelined,
            ..Scenario::new(3)
        };
        let (piped, sync) = assert_equivalent(&cell, run_racy_epochs);
        assert!(
            !sync.races.is_empty(),
            "{protocol:?}: the program must actually race"
        );
        // Same detection work, just moved off the critical path.
        assert_eq!(sync.det_stats, piped.det_stats, "{protocol:?}");
        assert_eq!(piped.nodes[0].stats.pipelined_epochs, 4, "{protocol:?}");
        assert_eq!(sync.nodes[0].stats.pipelined_epochs, 0, "{protocol:?}");
    }
}

/// Checkpointing runs, clean and with a scripted worker kill, under several
/// wire seeds.  Every barrier is a cut, so this also pins the gating rule:
/// a cut must not commit before its epoch's detection drains — otherwise
/// the restored race log (and hence the final report) would silently drop
/// the gated epoch's races.
#[test]
fn pipelined_matches_synchronous_through_recovery() {
    for protocol in PROTOCOLS {
        for seed in [11u64, 29, 47] {
            let kill = || {
                vec![Fault::Kill {
                    victim: 2,
                    at_event: 30,
                }]
            };
            let clean = recovering(protocol, Detection::Pipelined, seed, vec![]);
            let reference = Reference::run(&clean, run_racy_epochs);
            assert_matches(&clean, &reference, run_racy_epochs);
            let sync = recovering(protocol, Detection::Sync, seed, kill());
            assert_matches(&sync, &reference, run_racy_epochs);
            let piped = recovering(protocol, Detection::Pipelined, seed, kill());
            let r = assert_matches(&piped, &reference, run_racy_epochs).recovery;
            assert!(
                r.recoveries >= 1,
                "{piped:?}: the kill must trigger recovery"
            );
        }
    }
}

/// A scripted master kill completes via failover — no full-attempt abort —
/// in sync and pipelined modes, with the recovery counters surfaced.
#[test]
fn failover_master_kill_matches_clean() {
    for protocol in PROTOCOLS {
        let reference = Reference::run(
            &recovering(protocol, Detection::Sync, 13, vec![]),
            run_racy_epochs,
        );
        for detection in [Detection::Sync, Detection::Pipelined] {
            let kill = Fault::Kill {
                victim: 0,
                at_event: 30,
            };
            let cell = recovering(protocol, detection, 13, vec![kill]);
            let r = assert_matches(&cell, &reference, run_racy_epochs).recovery;
            assert!(
                r.recoveries >= 1,
                "{cell:?}: the kill must trigger recovery"
            );
            assert!(r.failovers >= 1, "{cell:?}: the master seat must move");
            assert!(r.backoff_waits >= 1, "{cell:?}: retries must back off");
        }
    }
}

/// Scripted `KillAtPhase` strikes: the victim self-destructs inside a
/// named protocol window — the master mid-(pipelined)-compare, a worker
/// answering the bitmap round an in-flight compare depends on, and either
/// role inside the CkptAck→CkptGo commit window (where, in pipelined
/// mode, the cut can be parked in the drain gate).  Every cell recovers;
/// the master cells fail over.
#[test]
fn failover_phase_strikes_match_clean() {
    use cvm_repro::dsm::ProtocolPhase;
    let strikes: [(u16, ProtocolPhase, u64, Detection); 5] = [
        (0, ProtocolPhase::PipelinedCompare, 1, Detection::Pipelined), // master mid-compare
        (1, ProtocolPhase::BitmapRound, 1, Detection::Pipelined),      // worker mid-round
        (0, ProtocolPhase::CkptWindow, 1, Detection::Pipelined),       // master, cut in drain gate
        (1, ProtocolPhase::CkptWindow, 1, Detection::Pipelined),       // worker, cut in drain gate
        (0, ProtocolPhase::BitmapRound, 2, Detection::Sync),           // master, sync detection
    ];
    for protocol in PROTOCOLS {
        let reference = Reference::run(
            &recovering(protocol, Detection::Sync, 19, vec![]),
            run_racy_epochs,
        );
        for (victim, phase, hit, detection) in strikes {
            let strike = Fault::KillAtPhase { victim, phase, hit };
            let cell = recovering(protocol, detection, 19, vec![strike]);
            let r = assert_matches(&cell, &reference, run_racy_epochs).recovery;
            assert!(r.recoveries >= 1, "{cell:?}: the strike must land");
            if victim == 0 {
                assert!(r.failovers >= 1, "{cell:?}: master strike must fail over");
            } else {
                assert_eq!(
                    r.failovers, 0,
                    "{cell:?}: worker strike must not move the seat"
                );
            }
        }
    }
}

/// A transient master-side partition long enough to depose the seat
/// completes via quorum-fenced succession — partition, failover to the
/// majority side, heal, old master rejoined from the cut under the new
/// term — with the heal, failover and rejoin counters live.
#[test]
fn partition_master_failover_fences_and_rejoins() {
    for protocol in PROTOCOLS {
        let reference = Reference::run(
            &recovering(protocol, Detection::Sync, 13, vec![]),
            run_racy_epochs,
        );
        for detection in [Detection::Sync, Detection::Pipelined] {
            // The heal point is far beyond the attempt's traffic: within
            // attempt 1 the outage is effectively permanent (the peers
            // declare the master dead), and the window is observed healed
            // during the recovery backoff pause.
            let cut = Fault::Partition {
                victim: 0,
                at: 80,
                heal: 100_000,
            };
            let cell = recovering(protocol, detection, 13, vec![cut]);
            let r = assert_matches(&cell, &reference, run_racy_epochs).recovery;
            assert!(
                r.recoveries >= 1,
                "{cell:?}: the outage must trigger recovery"
            );
            assert!(
                r.failovers >= 1,
                "{cell:?}: a cut master must lose the seat"
            );
            assert!(r.partitions_healed >= 1, "{cell:?}: the window must heal");
            assert!(
                r.rejoin_restores >= 1,
                "{cell:?}: the deposed master must rejoin from the agreed cut"
            );
            assert_eq!(r.quorum_losses, 0, "{cell:?}: the majority keeps quorum");
        }
    }
}

/// Byte-identity holds across all heal timings, including outages short
/// enough that retransmission bridges them without any recovery machinery
/// engaging (the heal is then visible only in the counters).
#[test]
fn partition_reports_identical_across_heal_timings() {
    for protocol in PROTOCOLS {
        let reference = Reference::run(
            &recovering(protocol, Detection::Sync, 29, vec![]),
            run_racy_epochs,
        );
        for detection in [Detection::Sync, Detection::Pipelined] {
            for (victim, gap) in [(0u16, 12u64), (1, 12), (1, 100_000), (2, 400)] {
                let cut = Fault::Partition {
                    victim,
                    at: 40,
                    heal: 40 + gap,
                };
                let cell = recovering(protocol, detection, 29, vec![cut]);
                let r = assert_matches(&cell, &reference, run_racy_epochs).recovery;
                assert!(r.partitions_healed >= 1, "{cell:?}: the window must heal");
            }
        }
    }
}

/// A panic on the detection stage thread must surface as a *named*
/// protocol error within the op deadline — not hang the barrier waiters,
/// and not be retried (a deterministic panic would panic identically on
/// replay), regardless of recovery policy.
#[test]
fn failover_stage_panic_surfaces_named_error() {
    for recovery in [
        RecoveryPolicy::Abort,
        RecoveryPolicy::Recover { max_attempts: 3 },
    ] {
        let mut cfg = Scenario {
            detection: Detection::Pipelined,
            recovery,
            ..Scenario::new(3)
        }
        .config();
        cfg.detect.stage_panic_epoch = Some(1);
        let start = std::time::Instant::now();
        let err = run_racy_epochs(cfg).expect_err("injected stage panic must fail the run");
        assert_eq!(
            err.error,
            cvm_repro::dsm::DsmError::Protocol {
                context: "detection stage thread panicked"
            },
            "{recovery:?}"
        );
        assert!(
            start.elapsed() < OP_DEADLINE + Duration::from_secs(5),
            "{recovery:?}: the panic must be diagnosed promptly, not deadline out"
        );
    }
}

/// Abort policy with a scripted kill: both modes fail, and the pipelined
/// partial report is a subset of the clean run's (a drained pipeline never
/// invents races).
#[test]
fn pipelined_abort_kill_yields_partial_subset() {
    let cell = |detection, faults| Scenario {
        detection,
        wire: Wire::Fast(seeded(7)),
        faults,
        ..Scenario::new(3)
    };
    let clean = run_racy_epochs(cell(Detection::Sync, vec![]).config()).expect("clean baseline");
    let full = race_lines(&clean);
    for detection in [Detection::Sync, Detection::Pipelined] {
        let kill = Fault::Kill {
            victim: 1,
            at_event: 30,
        };
        let err = run_racy_epochs(cell(detection, vec![kill]).config())
            .expect_err("the kill must fail an Abort run");
        for line in race_lines(&err.partial) {
            assert!(
                full.contains(&line),
                "{detection:?}: partial report invented a race: {line}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprint stability: the canonical `RaceReport::fingerprint` is the
// race-hunt service's dedup key, so it must be invariant across every
// knob that is documented not to change detection output — worker counts
// and the sync-vs-pipelined master.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn fingerprints_invariant_across_workers_and_pipelining(
        nprocs in 2usize..=4,
        epochs in 1u64..=3,
        stride in 1u64..=5,
    ) {
        // A deterministic mixed workload: true races, false sharing and a
        // race-free stripe, varied enough to explore plans and report sets.
        let run = |cfg: DsmConfig| {
            Cluster::run(
                cfg,
                |alloc| alloc.alloc("arr", 8 * 128).unwrap(),
                |h, &arr| {
                    let me = h.proc() as u64;
                    for e in 0..epochs {
                        for k in 0..4u64 {
                            h.write(arr.word((me * stride + k * 16 + e) % 128), me + e);
                        }
                        let _ = h.read(arr.word((me + e) % 32));
                        h.barrier();
                    }
                },
            )
        };
        let reference = Reference::run(&Scenario::new(nprocs), run);
        for detection in [Detection::Workers(2), Detection::Workers(4), Detection::Pipelined] {
            assert_matches(&Scenario { detection, ..Scenario::new(nprocs) }, &reference, run);
        }
    }
}
