//! End-to-end cluster tests: coherence, synchronization, and detection.

use cvm_dsm::{Cluster, DetectConfig, DsmConfig, OverheadCat, Protocol, WriteDetection};
use cvm_net::TrafficClass;
use cvm_page::GAddr;
use cvm_race::RaceKind;

fn cfg(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs)
}

#[test]
fn single_proc_write_read_and_barrier() {
    let report = Cluster::run(
        cfg(1),
        |alloc| alloc.alloc("x", 8).unwrap(),
        |h, &x| {
            h.write(x, 42);
            assert_eq!(h.read(x), 42);
            h.barrier();
            assert_eq!(h.read(x), 42);
        },
    )
    .expect("cluster run");
    assert!(report.races.is_empty());
    assert_eq!(report.barriers(), 1);
}

#[test]
fn lock_protected_counter_is_coherent() {
    const PER_PROC: u64 = 25;
    let nprocs = 4;
    let report = Cluster::run(
        cfg(nprocs),
        |alloc| alloc.alloc("counter", 8).unwrap(),
        |h, &counter| {
            for _ in 0..PER_PROC {
                h.lock(1);
                let v = h.read(counter);
                h.write(counter, v + 1);
                h.unlock(1);
            }
            h.barrier();
            assert_eq!(h.read(counter), PER_PROC * nprocs as u64);
        },
    )
    .expect("cluster run");
    // Properly synchronized: no races.
    assert!(
        report.races.is_empty(),
        "unexpected races: {:?}",
        report.races.reports()
    );
}

#[test]
fn barrier_ordered_neighbor_exchange_is_race_free() {
    // Each proc writes its slot (distinct words of one page), crosses a
    // barrier, then reads every other slot: page-level sharing across
    // epochs is ordered; within the epoch the writes are false sharing.
    let nprocs = 4;
    let report = Cluster::run(
        cfg(nprocs),
        |alloc| alloc.alloc("slots", 8 * 4).unwrap(),
        |h, &slots| {
            let me = h.proc() as u64;
            h.write(slots.word(me), 100 + me);
            h.barrier();
            for p in 0..h.nprocs() as u64 {
                assert_eq!(h.read(slots.word(p)), 100 + p);
            }
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(
        report.races.is_empty(),
        "false sharing misreported as races: {:?}",
        report.races.reports()
    );
    // The concurrent writes to one page were examined and dismissed.
    assert!(report.det_stats.pairs_overlapping > 0);
    assert!(report.det_stats.bitmaps_requested > 0);
}

#[test]
fn write_write_race_is_detected_and_symbolized() {
    let report = Cluster::run(
        cfg(2),
        |alloc| {
            let _pad = alloc.alloc("pad", 64).unwrap();
            alloc.alloc("Racy", 8).unwrap()
        },
        |h, &racy| {
            h.write(racy, h.proc() as u64);
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(!report.races.is_empty(), "write-write race missed");
    let r = &report.races.reports()[0];
    assert_eq!(r.kind, RaceKind::WriteWrite);
    assert_eq!(r.addr, racy_addr(&report));
    assert!(r.render(&report.segments).contains("Racy"));
}

fn racy_addr(report: &cvm_dsm::RunReport) -> GAddr {
    report
        .segments
        .segments()
        .iter()
        .find(|s| s.name == "Racy")
        .expect("Racy segment")
        .base
}

#[test]
fn read_write_race_is_detected() {
    let report = Cluster::run(
        cfg(2),
        |alloc| alloc.alloc("flag", 8).unwrap(),
        |h, &flag| {
            if h.proc() == 0 {
                h.write(flag, 1);
            } else {
                let _ = h.read(flag);
            }
            h.barrier();
        },
    )
    .expect("cluster run");
    assert_eq!(report.races.len(), 1);
    assert_eq!(report.races.reports()[0].kind, RaceKind::ReadWrite);
}

#[test]
fn lock_ordering_suppresses_race() {
    // Figure 1's w1-r3 pair: write under a lock, read under the same lock.
    let report = Cluster::run(
        cfg(2),
        |alloc| alloc.alloc("x", 8).unwrap(),
        |h, &x| {
            h.lock(7);
            if h.proc() == 0 {
                h.write(x, 5);
            } else {
                let _ = h.read(x);
            }
            h.unlock(7);
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(
        report.races.is_empty(),
        "lock-ordered accesses misreported: {:?}",
        report.races.reports()
    );
}

#[test]
fn barrier_orders_across_epochs() {
    // Write in epoch 0, read in epoch 1: ordered by the barrier.
    let report = Cluster::run(
        cfg(2),
        |alloc| alloc.alloc("x", 8).unwrap(),
        |h, &x| {
            if h.proc() == 0 {
                h.write(x, 99);
            }
            h.barrier();
            assert_eq!(h.read(x), 99, "stale read after barrier");
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(report.races.is_empty());
}

#[test]
fn values_propagate_through_lock_chain() {
    // P0 writes under lock; P1 acquires the same lock and must see it
    // (the consistency information rides on the grant).
    let report = Cluster::run(
        cfg(2),
        |alloc| {
            (
                alloc.alloc("data", 8).unwrap(),
                alloc.alloc("turn", 8).unwrap(),
            )
        },
        |h, &(data, turn)| {
            if h.proc() == 0 {
                h.lock(3);
                h.write(data, 1234);
                h.write(turn, 1);
                h.unlock(3);
            } else {
                loop {
                    h.lock(3);
                    let t = h.read(turn);
                    if t == 1 {
                        assert_eq!(h.read(data), 1234);
                        h.unlock(3);
                        break;
                    }
                    h.unlock(3);
                    std::thread::yield_now();
                }
            }
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(report.races.is_empty());
}

#[test]
fn multiwriter_concurrent_disjoint_writes_merge() {
    let mut c = cfg(4);
    c.protocol = Protocol::MultiWriter;
    let report = Cluster::run(
        c,
        |alloc| alloc.alloc("shared_page", 4096).unwrap(),
        |h, &base| {
            let me = h.proc() as u64;
            // All four procs write disjoint words of the same page,
            // concurrently.
            h.write(base.word(me * 8), 1000 + me);
            h.barrier();
            // Everyone sees everyone's writes after the barrier.
            for p in 0..h.nprocs() as u64 {
                assert_eq!(h.read(base.word(p * 8)), 1000 + p, "lost update");
            }
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(
        report.races.is_empty(),
        "multi-writer false sharing misreported: {:?}",
        report.races.reports()
    );
    let diffs: u64 = report.nodes.iter().map(|n| n.stats.diffs_made).sum();
    assert!(diffs >= 3, "expected diffs from concurrent writers");
}

#[test]
fn diff_write_detection_misses_same_value_overwrite() {
    // §6.5's documented weakness: P0 overwrites a word with its existing
    // value (zero) while P1 reads it.  Instrumentation-based detection
    // reports the read-write race; diff-based detection cannot.
    let run = |write_detection| {
        let mut c = cfg(2);
        c.protocol = Protocol::MultiWriter;
        c.detect.write_detection = write_detection;
        Cluster::run(
            c,
            |alloc| alloc.alloc("x", 8).unwrap(),
            |h, &x| {
                if h.proc() == 0 {
                    h.write(x, 0); // Same value as the initial contents.
                } else {
                    let _ = h.read(x);
                }
                h.barrier();
            },
        )
        .expect("cluster run")
    };
    let instrumented = run(WriteDetection::Instrumentation);
    assert_eq!(instrumented.races.len(), 1, "instrumentation must catch it");
    let diffed = run(WriteDetection::Diffs);
    assert!(
        diffed.races.is_empty(),
        "diff-based detection cannot see same-value overwrites"
    );
}

#[test]
fn detection_off_runs_clean_and_cheaper() {
    let run = |detect| {
        let mut c = cfg(2);
        c.detect = detect;
        Cluster::run(
            c,
            |alloc| alloc.alloc("x", 8).unwrap(),
            |h, &x| {
                for i in 0..100 {
                    if h.proc() == 0 {
                        h.write(x, i);
                    } else {
                        let _ = h.read(x);
                    }
                    h.barrier();
                }
            },
        )
        .expect("cluster run")
    };
    let on = run(DetectConfig::on());
    let off = run(DetectConfig::off());
    assert!(on.races.len() <= 100);
    assert!(off.races.is_empty());
    // Read notices only exist with detection on.
    assert!(on.net.class_bytes(TrafficClass::ReadNotice) > 0);
    assert_eq!(off.net.class_bytes(TrafficClass::ReadNotice), 0);
    assert_eq!(off.net.class_bytes(TrafficClass::Bitmap), 0);
    // And the instrumented run is virtually slower.
    assert!(on.virtual_cycles() > off.virtual_cycles());
}

#[test]
fn barrier_only_app_has_two_intervals_per_barrier() {
    let report = Cluster::run(
        cfg(4),
        |alloc| alloc.alloc("grid", 4096).unwrap(),
        |h, &grid| {
            for _ in 0..10 {
                h.write(grid.word(h.proc() as u64), 1);
                h.barrier();
            }
        },
    )
    .expect("cluster run");
    let ipb = report.intervals_per_barrier();
    assert!(
        (ipb - 2.0).abs() < 0.35,
        "intervals per barrier = {ipb}, expected ~2 (Table 1)"
    );
}

#[test]
fn first_races_only_reports_earliest_epoch() {
    let run_with = |detect: DetectConfig, first_only| {
        let mut c = cfg(2);
        c.detect = detect;
        c.detect.first_races_only = first_only;
        Cluster::run(
            c,
            |alloc| (alloc.alloc("a", 8).unwrap(), alloc.alloc("b", 8).unwrap()),
            |h, &(a, b)| {
                // Epoch 0: race on `a`.
                h.write(a, h.proc() as u64);
                h.barrier();
                // Epoch 1: race on `b`.
                h.write(b, h.proc() as u64);
                h.barrier();
            },
        )
        .expect("cluster run")
    };
    let run = |first_only| run_with(DetectConfig::on(), first_only);
    let all = run(false);
    let epochs_all: std::collections::BTreeSet<u64> =
        all.races.reports().iter().map(|r| r.epoch).collect();
    assert_eq!(
        epochs_all.len(),
        2,
        "races in both epochs: {all:?}",
        all = all.races
    );
    let first = run(true);
    assert!(!first.races.is_empty());
    let epochs_first: std::collections::BTreeSet<u64> =
        first.races.reports().iter().map(|r| r.epoch).collect();
    assert_eq!(epochs_first.len(), 1);
    assert_eq!(
        epochs_first.into_iter().next(),
        epochs_all.into_iter().next()
    );
    // Pipelined, the first epoch's reports arrive one release late; the
    // same "already raced" rule must still silence the second epoch.
    let pipelined = run_with(DetectConfig::pipelined(), true);
    assert_eq!(pipelined.races.reports(), first.races.reports());
}

#[test]
fn consolidation_detects_races_without_program_barriers() {
    // A lock-only program (§6.3): the race is found at the explicit
    // consolidation point.
    let report = Cluster::run(
        cfg(2),
        |alloc| alloc.alloc("x", 8).unwrap(),
        |h, &x| {
            h.write(x, h.proc() as u64 + 1);
            h.consolidate();
        },
    )
    .expect("cluster run");
    assert!(!report.races.is_empty());
    assert!(report.nodes.iter().all(|n| n.stats.consolidations == 1));
}

#[test]
fn sync_record_then_replay_reproduces_grant_order() {
    let body = |h: &cvm_dsm::ProcHandle, shared: &GAddr| {
        for _ in 0..20 {
            h.lock(5);
            let v = h.read(*shared);
            h.write(*shared, v + 1);
            h.unlock(5);
        }
        h.barrier();
    };
    let mut c1 = cfg(4);
    c1.record_sync = true;
    let first =
        Cluster::run(c1, |a| a.alloc("n", 8).unwrap(), |h, s| body(h, s)).expect("cluster run");
    assert!(!first.schedule.is_empty());

    let mut c2 = cfg(4);
    c2.record_sync = true;
    c2.replay = Some(first.schedule.clone());
    let second =
        Cluster::run(c2, |a| a.alloc("n", 8).unwrap(), |h, s| body(h, s)).expect("cluster run");
    assert_eq!(
        second.schedule, first.schedule,
        "replay must reproduce the recorded grant order"
    );
}

#[test]
fn watch_identifies_access_sites_on_replay() {
    // First run: find the race.  Second run (replayed): gather the access
    // sites touching the racy address in the racy epoch (§6.1).
    let body = |h: &cvm_dsm::ProcHandle, x: &GAddr| {
        if h.proc() == 0 {
            h.write_at(*x, 7, 1001);
        } else {
            let _ = h.read_at(*x, 2002);
        }
        h.barrier();
    };
    let mut c1 = cfg(2);
    c1.record_sync = true;
    let first =
        Cluster::run(c1, |a| a.alloc("x", 8).unwrap(), |h, x| body(h, x)).expect("cluster run");
    assert_eq!(first.races.len(), 1);
    let race = first.races.reports()[0].clone();

    let mut c2 = cfg(2);
    c2.replay = Some(first.schedule.clone());
    c2.detect.watch = Some(cvm_dsm::Watch {
        addr: race.addr,
        epoch: race.epoch,
    });
    let second =
        Cluster::run(c2, |a| a.alloc("x", 8).unwrap(), |h, x| body(h, x)).expect("cluster run");
    let sites: std::collections::BTreeSet<u32> =
        second.watch_hits.iter().map(|hit| hit.site).collect();
    assert_eq!(
        sites.into_iter().collect::<Vec<_>>(),
        vec![1001, 2002],
        "both racy access sites identified"
    );
}

#[test]
fn many_procs_stress_pages_and_locks() {
    let nprocs = 8;
    let report = Cluster::run(
        cfg(nprocs),
        |alloc| {
            (
                alloc.alloc_page_aligned("grid", 8 * 4096).unwrap(),
                alloc.alloc("sum", 8).unwrap(),
            )
        },
        |h, &(grid, sum)| {
            let me = h.proc() as u64;
            // Page-aligned private rows: no sharing at all.
            for w in 0..512 {
                h.write(grid.offset(me * 4096).word(w), me * 1000 + w);
            }
            h.barrier();
            // Read the next proc's row (ordered by the barrier).
            let next = (me + 1) % h.nprocs() as u64;
            let mut local = 0u64;
            for w in 0..512 {
                local += h.read(grid.offset(next * 4096).word(w));
            }
            h.lock(0);
            let v = h.read(sum);
            h.write(sum, v.wrapping_add(local));
            h.unlock(0);
            h.barrier();
            let _ = h.read(sum);
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(
        report.races.is_empty(),
        "clean program misreported: {:?}",
        report.races.reports()
    );
    assert_eq!(report.barriers(), 3);
    let (rf, wf) = report.faults();
    assert!(rf > 0 && wf > 0);
}

#[test]
fn garbage_collection_keeps_state_bounded() {
    // 60 epochs of identical work: retained interval records and bitmaps
    // must plateau (GC at each barrier), not grow with epoch count.
    let run = |epochs: usize| {
        let report = Cluster::run(
            cfg(3),
            |alloc| alloc.alloc_page_aligned("grid", 3 * 4096).unwrap(),
            |h, &grid| {
                let me = h.proc() as u64;
                for _ in 0..epochs {
                    for w in 0..32 {
                        h.write(grid.offset(me * 4096).word(w), w);
                    }
                    let next = (me + 1) % h.nprocs() as u64;
                    let _ = h.read(grid.offset(next * 4096).word(0));
                    h.barrier();
                }
            },
        )
        .expect("cluster run");
        report
            .nodes
            .iter()
            .map(|n| (n.stats.log_high_water, n.stats.bitmap_high_water))
            .collect::<Vec<_>>()
    };
    let short = run(6);
    let long = run(60);
    for (p, (s, l)) in short.iter().zip(&long).enumerate() {
        assert_eq!(s, l, "P{p}: retained-state high water grew with epochs");
    }
    // And the plateau is small: a handful of records per epoch, not
    // hundreds.
    for &(log_hw, bm_hw) in &long {
        assert!(log_hw <= 24, "log high water {log_hw}");
        assert!(bm_hw <= 24, "bitmap high water {bm_hw}");
    }
}

#[test]
fn handle_utility_surface() {
    let report = Cluster::run(
        cfg(2),
        |alloc| alloc.alloc("x", 16).unwrap(),
        |h, &x| {
            assert_eq!(h.nprocs(), 2);
            assert!(h.proc() < 2);
            // f64 round-trip through shared memory.
            if h.proc() == 0 {
                h.write_f64(x, -3.75);
                h.write(x.word(1), u64::MAX);
            }
            h.barrier();
            assert_eq!(h.read_f64(x), -3.75);
            assert_eq!(h.read(x.word(1)), u64::MAX);
            // Virtual time advances with explicit compute.
            let before = h.virtual_now();
            h.compute(12_345);
            assert!(h.virtual_now() >= before + 12_345);
            // Private traffic counts calls without touching shared state.
            h.private_traffic(7);
            h.barrier();
            // Races so far: the f64/word writes were ordered; none.
            assert_eq!(h.races_so_far(), 0);
        },
    )
    .expect("cluster run");
    let (shared, private) = report.analysis_calls();
    assert!(shared > 0);
    assert_eq!(private, 14, "7 private calls per proc");
}

#[test]
fn program_without_barriers_completes_without_detection() {
    // Detection only runs at global synchronization (§6.3): a racy program
    // that never reaches a barrier ends undetected — the documented
    // deployment reason for consolidate().
    let report = Cluster::run(
        cfg(2),
        |alloc| alloc.alloc("x", 8).unwrap(),
        |h, &x| {
            h.write(x, h.proc() as u64);
            let _ = h.read(x);
        },
    )
    .expect("cluster run");
    assert!(report.races.is_empty());
    assert_eq!(report.barriers(), 0);
    assert_eq!(report.det_stats.pair_comparisons, 0);
}

#[test]
fn tiny_pages_geometry_works() {
    // 64-byte pages: every word pair lands on its own page; the protocol
    // and detector must be geometry-agnostic.
    let mut c = cfg(3);
    c.geometry = cvm_page::Geometry::with_page_bytes(64);
    let report = Cluster::run(
        c,
        |alloc| alloc.alloc("arr", 8 * 24).unwrap(),
        |h, &arr| {
            let me = h.proc() as u64;
            for k in 0..8 {
                h.write(arr.word(me * 8 + k), k);
            }
            h.barrier();
            for w in 0..24 {
                let _ = h.read(arr.word(w));
            }
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(report.races.is_empty(), "{:?}", report.races.reports());
    let (rf, _) = report.faults();
    assert!(rf > 0, "cross-page reads must fault");
}

#[test]
fn twelve_procs_smoke() {
    let nprocs = 12;
    let report = Cluster::run(
        cfg(nprocs),
        |alloc| {
            (
                alloc.alloc_page_aligned("grid", 12 * 4096).unwrap(),
                alloc.alloc("sum", 8).unwrap(),
            )
        },
        |h, &(grid, sum)| {
            let me = h.proc() as u64;
            for w in 0..64 {
                h.write(grid.offset(me * 4096).word(w), me * 64 + w);
            }
            h.barrier();
            let next = (me + 1) % h.nprocs() as u64;
            let mut acc = 0u64;
            for w in 0..64 {
                acc = acc.wrapping_add(h.read(grid.offset(next * 4096).word(w)));
            }
            h.lock(0);
            let v = h.read(sum);
            h.write(sum, v.wrapping_add(acc));
            h.unlock(0);
            h.barrier();
            // All procs see the complete sum.
            let total = h.read(sum);
            let expect: u64 = (0..12 * 64).sum();
            assert_eq!(total, expect);
            h.barrier();
        },
    )
    .expect("cluster run");
    assert!(report.races.is_empty());
    assert_eq!(report.nodes.len(), 12);
}

#[test]
fn full_stack_over_lossy_wire() {
    // The whole protocol — locks, barriers, page ownership, detection,
    // the bitmap round — over a 10%-loss wire with the reliability layer
    // underneath: same answers, same races.
    let mut c = cfg(3);
    c.net_loss = Some(cvm_net::FaultPlan::new(0.10, 1996));
    let report = Cluster::run(
        c,
        |alloc| {
            (
                alloc.alloc("counter", 8).unwrap(),
                alloc.alloc("racy", 8).unwrap(),
            )
        },
        |h, &(counter, racy)| {
            for _ in 0..10 {
                h.lock(1);
                let v = h.read(counter);
                h.write(counter, v + 1);
                h.unlock(1);
                let r = h.read(racy);
                h.write(racy, r + 1);
            }
            h.barrier();
            assert_eq!(h.read(counter), 30, "loss must not corrupt coherence");
            h.barrier();
        },
    )
    .expect("cluster run");
    let racy_addr = report
        .segments
        .segments()
        .iter()
        .find(|s| s.name == "racy")
        .unwrap()
        .base;
    assert!(
        !report.races.at(racy_addr).is_empty(),
        "race detection must survive the lossy wire"
    );
    let locked_addr = report.segments.segments()[0].base;
    assert!(report.races.at(locked_addr).is_empty());
}

/// The shape on which detection costs the most wall time (the ledger's
/// `lock_storm`): every process closes ~100 one-page intervals per epoch
/// under locks no other process takes, so every interval is concurrent
/// with every remote one, and only each epoch's first intervals clash on
/// one unsynchronised word.  Neither the worker count nor pipelining may
/// change a report or a detector counter.
#[test]
fn lock_storm_is_invariant_across_workers_and_pipelining() {
    const NODES: usize = 4;
    const LOCK_OPS: u64 = 100;
    const EPOCHS: u64 = 3;
    const STRIPE_WORDS: u64 = 512;
    let run = |workers: usize, pipelined: bool| {
        let mut c = cfg(NODES);
        c.detect = if pipelined {
            DetectConfig::pipelined()
        } else {
            DetectConfig::on()
        };
        c.detect.workers = workers;
        Cluster::run(
            c,
            |alloc| {
                alloc
                    .alloc_page_aligned("storm", (NODES as u64 + 1) * STRIPE_WORDS * 8)
                    .unwrap()
            },
            |h, &arr| {
                let me = h.proc() as u64;
                for e in 0..EPOCHS {
                    for k in 0..LOCK_OPS {
                        let lock = (me * LOCK_OPS + k) as u32 + 1;
                        h.lock(lock);
                        h.write(arr.word(me * STRIPE_WORDS + e * LOCK_OPS + k), k);
                        if k == 0 {
                            h.write(arr.word(NODES as u64 * STRIPE_WORDS + e), me);
                        }
                        h.unlock(lock);
                    }
                    h.barrier();
                }
            },
        )
        .expect("cluster run")
    };
    let reference = run(1, false);
    // One write-write report per process pair per epoch, on the clash word.
    let pairs = (NODES * (NODES - 1) / 2) as u64;
    assert_eq!(reference.races.len() as u64, EPOCHS * pairs);
    let clash = reference.segments.segments()[0]
        .base
        .word(NODES as u64 * STRIPE_WORDS);
    for r in reference.races.reports() {
        assert_eq!(
            (r.kind, r.addr),
            (RaceKind::WriteWrite, clash.word(r.epoch))
        );
    }
    assert_eq!(reference.det_stats.pairs_overlapping, EPOCHS * pairs);
    // Every lock interval of an epoch is concurrent with every remote one,
    // and nearly all of those pairs share no page.
    assert!(reference.det_stats.pairs_concurrent >= EPOCHS * pairs * LOCK_OPS * LOCK_OPS);
    // The master's detection charges: `det_stats` times the cost
    // constants, plus the bitmap round's message bytes.
    let charges = |report: &cvm_dsm::RunReport| {
        let cats = report.nodes[0].cats;
        [OverheadCat::Intervals, OverheadCat::Bitmaps].map(|c| cats[c as usize])
    };
    for (workers, pipelined) in [(0, false), (4, false), (0, true), (1, true), (4, true)] {
        let report = run(workers, pipelined);
        assert_eq!(
            report.races.reports(),
            reference.races.reports(),
            "workers {workers}, pipelined {pipelined}"
        );
        assert_eq!(
            report.det_stats, reference.det_stats,
            "workers {workers}, pipelined {pipelined}"
        );
        assert_eq!(
            charges(&report),
            charges(&reference),
            "workers {workers}, pipelined {pipelined}"
        );
    }
}
