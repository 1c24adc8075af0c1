//! Chaos testing: randomized barrier-only litmus programs run over
//! randomized fault plans.  The wire may drop, duplicate, reorder, and
//! corrupt — the reliability protocol repairs it all, so the race detector
//! must report *byte-identical* races to a fault-free run of the same
//! program, and the same `(FaultPlan, seed)` must reproduce exactly.
//! Scripted kills under [`RecoveryPolicy::Recover`] must likewise complete
//! with identical reports, via barrier-epoch checkpoint rollback.

use std::time::Duration;

use cvm_dsm::{DsmConfig, FaultPlan, Protocol, RecoveryPolicy, RunReport};
use cvm_testkit::{
    assert_equivalent, assert_matches, race_lines, run_epochs, Detection, Fault, Op, Reference,
    Scenario, Wire,
};
use cvm_vclock::ProcId;
use proptest::prelude::*;

const RECOVER: RecoveryPolicy = RecoveryPolicy::Recover { max_attempts: 3 };

fn protocol(multi_writer: bool) -> Protocol {
    if multi_writer {
        Protocol::MultiWriter
    } else {
        Protocol::SingleWriter
    }
}

/// Asserts `cell` equivalent to its reference, then that a rerun of the
/// identical plan reproduces its reports; returns the cell's report.
fn assert_reproducible(cell: &Scenario, words: usize, epochs: &[Vec<Op>]) -> RunReport {
    let run = |cfg: DsmConfig| run_epochs(cfg, words, epochs);
    let (report, _) = assert_equivalent(cell, run);
    let again = run(cell.config()).expect("the rerun must complete");
    assert_eq!(
        race_lines(&report),
        race_lines(&again),
        "{cell:?}: same (plan, seed) must reproduce"
    );
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Faults below the kill threshold are invisible to the application:
    /// whatever races the program has, the detector reports the same ones
    /// (bytes-for-bytes) over a chaotic wire as over perfect channels —
    /// and reproduces them on a rerun of the identical plan.
    #[test]
    fn race_reports_survive_wire_chaos(
        nprocs in 2usize..4,
        words in 1usize..6,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..6, any::<bool>()), 0..8),
            1..4,
        ),
        drop_rate in 0.0f64..0.3,
        dup_rate in 0.0f64..0.2,
        reorder_rate in 0.0f64..0.15,
        seed in any::<u64>(),
        multi_writer in any::<bool>(),
    ) {
        let chaos = Fault::Chaos { drop: drop_rate, dup: dup_rate, reorder: reorder_rate };
        let cell = Scenario {
            protocol: protocol(multi_writer),
            wire: Wire::Reliable(seed),
            faults: vec![chaos],
            ..Scenario::new(nprocs)
        };
        assert_reproducible(&cell, words, &epochs);
    }

    /// A corrupting wire is invisible above the frame gate: every damaged
    /// frame is rejected by the checksum and repaired by retransmission,
    /// so race reports stay byte-identical to a clean wire — for both
    /// protocols, with checkpointing and recovery armed — and the same
    /// `(plan, seed)` reproduces the same reports on a rerun.
    #[test]
    fn race_reports_survive_wire_corruption(
        nprocs in 2usize..4,
        words in 1usize..6,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..6, any::<bool>()), 0..8),
            2..4,
        ),
        corrupt_rate in 0.05f64..0.3,
        seed in any::<u64>(),
        multi_writer in any::<bool>(),
    ) {
        let cell = Scenario {
            protocol: protocol(multi_writer),
            recovery: RECOVER,
            wire: Wire::Reliable(seed),
            faults: vec![Fault::Corrupt(corrupt_rate)],
            ..Scenario::new(nprocs)
        };
        let report = assert_reproducible(&cell, words, &epochs);
        let snap = report.reliability.expect("faulty wire keeps reliability stats");
        // Whatever the plan injected, the frame gate caught: corruption
        // must never be delivered, only dropped and retransmitted.
        prop_assert!(
            snap.corrupt_injected == 0 || snap.corrupt_dropped > 0,
            "injected {} corruptions but dropped none", snap.corrupt_injected
        );
        prop_assert_eq!(snap.decode_errors, 0, "corruption leaked past the checksum");
    }

    /// A scripted node kill under [`RecoveryPolicy::Recover`] is survivable
    /// for *any* barrier-structured program: the cluster rolls back to the
    /// last complete epoch, restores the victim from its image, and the
    /// completed run's race reports are byte-identical to a fault-free run.
    /// Short programs may finish before event `kill_at`, in which case the
    /// kill never fires and the run is trivially identical.
    #[test]
    fn scripted_kill_recovers_with_identical_races(
        nprocs in 2usize..4,
        words in 1usize..6,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..6, any::<bool>()), 0..8),
            2..5,
        ),
        victim_raw in 0usize..4,
        kill_at in 20u64..120,
        seed in any::<u64>(),
        multi_writer in any::<bool>(),
    ) {
        let kill = Fault::Kill { victim: (victim_raw % nprocs) as u16, at_event: kill_at };
        let cell = Scenario {
            protocol: protocol(multi_writer),
            recovery: RECOVER,
            wire: Wire::Fast(seed),
            faults: vec![kill],
            ..Scenario::new(nprocs)
        };
        assert_equivalent(&cell, |cfg| run_epochs(cfg, words, &epochs));
    }

    /// A transient partition — any victim, any start, healing either fast
    /// enough for retransmission to bridge the outage invisibly or far
    /// beyond the attempt's traffic (forcing peer-death, quorum-fenced
    /// succession when the master is the victim, and rejoin from the cut)
    /// — never changes the race reports: byte-identical to the fault-free
    /// run across both protocols, synchronous and pipelined detection.
    /// Short programs may finish before the window arms.
    #[test]
    fn transient_partition_keeps_reports_identical(
        nprocs in 2usize..4,
        words in 1usize..6,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..6, any::<bool>()), 0..8),
            2..5,
        ),
        victim_raw in 0usize..4,
        cut_at in 10u64..120,
        heal_gap in prop_oneof![8u64..60, Just(100_000u64)],
        seed in any::<u64>(),
        // Protocol and detection mode packed to fit the strategy-tuple
        // arity, as in the slow-consumer property below.
        knobs in any::<u64>(),
    ) {
        let victim = (victim_raw % nprocs) as u16;
        let cut = Fault::Partition { victim, at: cut_at, heal: cut_at + heal_gap };
        let cell = Scenario {
            protocol: protocol(knobs & 1 == 1),
            detection: if knobs & 2 == 2 { Detection::Pipelined } else { Detection::Sync },
            recovery: RECOVER,
            wire: Wire::Fast(seed),
            faults: vec![cut],
            ..Scenario::new(nprocs)
        };
        assert_equivalent(&cell, |cfg| run_epochs(cfg, words, &epochs));
    }

    /// Resource governance composes with recovery: a slow consumer behind a
    /// finite-capacity link *and* a scripted kill under
    /// [`RecoveryPolicy::Recover`] still completes with race reports
    /// byte-identical to a run without either fault, and the credit window
    /// keeps the sender queues bounded throughout rollback/replay.
    #[test]
    fn slow_consumer_with_recovery_keeps_reports_identical(
        nprocs in 2usize..4,
        words in 1usize..6,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..6, any::<bool>()), 0..8),
            2..5,
        ),
        kill_at in 20u64..120,
        capacity in 1u32..5,
        seed in any::<u64>(),
        // Slow node, dwell onset, kill victim, and protocol, packed to fit
        // the strategy-tuple arity.
        knobs in any::<u64>(),
    ) {
        let slow = Fault::SlowConsumer {
            node: ((knobs >> 1) as usize % nprocs) as u16,
            at: (knobs >> 8) % 60,
            dwell: Duration::from_millis(1),
        };
        let kill = Fault::Kill { victim: ((knobs >> 16) as usize % nprocs) as u16, at_event: kill_at };
        let cell = Scenario {
            protocol: protocol(knobs & 1 == 1),
            recovery: RECOVER,
            wire: Wire::Fast(seed),
            faults: vec![Fault::Capacity(capacity), slow, kill],
            ..Scenario::new(nprocs)
        };
        let (report, _) = assert_equivalent(&cell, |cfg| run_epochs(cfg, words, &epochs));
        prop_assert!(
            report.resources.queue_high_water <= u64::from(capacity),
            "queue high water {} over capacity {}",
            report.resources.queue_high_water, capacity
        );
    }
}

/// The acceptance bar stated plainly: a corruption-injection run actually
/// exercises the integrity path (`corrupt_dropped > 0`) and still produces
/// race reports byte-identical to the clean run, under both protocols.  At
/// rate `0` the faulty wire still frames and checks every datagram but must
/// count nothing.
#[test]
fn corruption_run_drops_frames_and_keeps_reports_identical() {
    // Two epochs of racy unsynchronized accesses: proc 0 writes word 0,
    // proc 1 reads it — a guaranteed report to compare.
    let epochs: Vec<Vec<Op>> = vec![
        vec![(0, 0, true), (1, 0, false), (1, 1, true)],
        vec![(0, 1, false), (1, 1, true)],
    ];
    let run = |cfg: DsmConfig| run_epochs(cfg, 2, &epochs);
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        let cell = |rate| Scenario {
            protocol,
            wire: Wire::Reliable(0xC0DE),
            faults: vec![Fault::Corrupt(rate)],
            ..Scenario::new(2)
        };
        let reference = Reference::run(&cell(0.0), run);
        for rate in [0.0, 0.1, 0.25] {
            let cell = cell(rate);
            let snap = assert_matches(&cell, &reference, run)
                .reliability
                .expect("faulty wire keeps reliability stats");
            if rate > 0.0 {
                assert!(snap.corrupt_injected > 0, "{cell:?}: {snap:?}");
                assert!(snap.corrupt_dropped > 0, "{cell:?}: {snap:?}");
            } else {
                assert_eq!(snap.corrupt_injected, 0, "{cell:?}: {snap:?}");
                assert_eq!(snap.corrupt_dropped, 0, "{cell:?}: {snap:?}");
            }
            assert_eq!(snap.decode_errors, 0, "{cell:?}: {snap:?}");
        }
    }
}

/// The same `(plan, seed)` yields the same corruption stream: scripted
/// `CorruptAt` events strike the same frame ordinals, so the injected
/// count is exactly reproducible run-over-run (rate-based counts include
/// timing-dependent retransmissions; scripted ordinals do not).
#[test]
fn scripted_corruption_is_exactly_reproducible() {
    use cvm_dsm::CorruptKind;
    let epochs: Vec<Vec<Op>> = vec![vec![(0, 0, true), (1, 0, false)]];
    let run = || {
        let mut cfg = DsmConfig::new(2);
        cfg.op_deadline = Duration::from_secs(5);
        cfg.net_loss = Some(
            FaultPlan::clean(7)
                .with_rto(Duration::from_millis(100), Duration::from_millis(400))
                .with_corrupt_at(ProcId(0), 1, CorruptKind::BitFlip)
                .with_corrupt_at(ProcId(1), 2, CorruptKind::Truncate)
                .with_corrupt_at(ProcId(1), 3, CorruptKind::GarbageTail),
        );
        run_epochs(cfg, 1, &epochs).expect("survivable corruption must not fail the run")
    };
    let (a, b) = (run(), run());
    assert_eq!(race_lines(&a), race_lines(&b));
    let (snap_a, snap_b) = (a.reliability.unwrap(), b.reliability.unwrap());
    assert_eq!(snap_a.corrupt_injected, 3, "{snap_a:?}");
    assert_eq!(snap_a.corrupt_injected, snap_b.corrupt_injected);
    assert_eq!(snap_a.corrupt_dropped, snap_b.corrupt_dropped);
}
