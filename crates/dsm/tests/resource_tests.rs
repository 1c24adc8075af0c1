//! Resource governance under load: credit-based flow control, per-node
//! memory budgets, and bounded checkpoint retention.
//!
//! The contract: link capacity and memory budgets are *performance* knobs,
//! never *correctness* knobs.  For any capacity ≥ 1 and any budget above
//! the per-app minimum, race reports stay byte-identical to an
//! unconstrained run; exhausting the hard budget fails cleanly through the
//! first-error path with a drained partial report — never a panic, a
//! deadlock, or unbounded allocation.

use std::time::{Duration, Instant};

use cvm_dsm::{
    Cluster, DsmConfig, DsmError, FaultPlan, MemBudget, Protocol, RecoveryPolicy, RunError,
    RunReport,
};
use cvm_testkit::{fast_wire, race_lines, run_epochs, Op};
use cvm_vclock::ProcId;
use proptest::prelude::*;

/// Runs a barrier-structured litmus program and returns the full report.
fn run_program(
    nprocs: usize,
    protocol: Protocol,
    words: usize,
    epochs: &[Vec<Op>],
    plan: Option<FaultPlan>,
    tweak: impl Fn(&mut DsmConfig),
) -> Result<RunReport, RunError> {
    let mut cfg = DsmConfig::new(nprocs);
    cfg.protocol = protocol;
    cfg.net_loss = plan;
    cfg.op_deadline = Duration::from_secs(5);
    tweak(&mut cfg);
    run_epochs(cfg, words, epochs)
}

/// A fixed racy two-epoch program: guarantees non-empty reports to compare.
fn racy_epochs() -> Vec<Vec<Op>> {
    vec![
        vec![(0, 0, true), (1, 0, false), (1, 1, true), (0, 2, true)],
        vec![(0, 1, false), (1, 1, true), (1, 2, false)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole invariant: race reports are byte-identical across link
    /// capacities {1, 4, 64, unbounded-equivalent}, for both protocols,
    /// and the credit window bound holds (`queue_high_water` ≤ capacity).
    #[test]
    fn race_reports_identical_across_link_capacities(
        nprocs in 2usize..4,
        words in 1usize..5,
        epochs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..5, any::<bool>()), 0..8),
            1..4,
        ),
        seed in any::<u64>(),
        multi_writer in any::<bool>(),
    ) {
        let protocol = if multi_writer { Protocol::MultiWriter } else { Protocol::SingleWriter };
        let clean = run_program(nprocs, protocol, words, &epochs, None, |_| {})
            .expect("clean run");
        let baseline = race_lines(&clean);
        for capacity in [1u32, 4, 64, u32::MAX] {
            let plan = FaultPlan::clean(seed).with_link_capacity(capacity);
            let report = run_program(nprocs, protocol, words, &epochs, Some(plan), |_| {})
                .expect("capacity alone must not fail a run");
            prop_assert_eq!(
                &baseline, &race_lines(&report),
                "capacity {} changed the race reports ({:?})", capacity, protocol
            );
            prop_assert!(
                report.resources.queue_high_water <= u64::from(capacity),
                "queue high water {} over capacity {}",
                report.resources.queue_high_water, capacity
            );
        }
    }

    /// Any budget above the per-app minimum degrades gracefully: the soft
    /// limit forces GC passes but the reports stay byte-identical.
    #[test]
    fn soft_budget_pressure_preserves_reports(
        // Below the footprint of a single retained interval record, so the
        // soft limit is crossed (and GC fires) at every interval close.
        soft in 1u64..48,
        seed in any::<u64>(),
        multi_writer in any::<bool>(),
    ) {
        let protocol = if multi_writer { Protocol::MultiWriter } else { Protocol::SingleWriter };
        let epochs = racy_epochs();
        let clean = run_program(2, protocol, 3, &epochs, None, |_| {}).expect("clean run");
        let plan = FaultPlan::clean(seed).with_link_capacity(1);
        let squeezed = run_program(2, protocol, 3, &epochs, Some(plan), |cfg| {
            cfg.budget = MemBudget { soft_bytes: soft, hard_bytes: u64::MAX };
        })
        .expect("soft pressure must not fail a run");
        prop_assert_eq!(&race_lines(&clean), &race_lines(&squeezed));
        // A byte-level soft limit this small is crossed at every close.
        prop_assert!(squeezed.resources.soft_gcs > 0, "{:?}", squeezed.resources);
    }
}

/// Hard-budget exhaustion surfaces [`DsmError::ResourceExhausted`] through
/// the first-error path with a drained partial report — no panic, no hang.
#[test]
fn hard_budget_exhaustion_fails_cleanly() {
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        let started = Instant::now();
        let err = run_program(2, protocol, 3, &racy_epochs(), None, |cfg| {
            cfg.budget = MemBudget::exact(16);
        })
        .expect_err("a 16-byte budget cannot hold an interval record");
        assert!(
            matches!(
                err.error,
                DsmError::ResourceExhausted { bytes, .. } if bytes > 16
            ),
            "{protocol:?}: expected ResourceExhausted, got {:?}",
            err.error
        );
        // Every node drained and contributed partial statistics.
        assert_eq!(err.partial.nodes.len(), 2);
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "{protocol:?}: exhaustion diagnosis took {:?}",
            started.elapsed()
        );
        // The error renders with the budget vocabulary.
        let text = err.error.to_string();
        assert!(text.contains("memory budget"), "{text}");
    }
}

/// A slow consumer behind a capacity-1 link cannot exhaust sender memory:
/// the credit window closes (stalls counted), queues stay bounded, and the
/// run completes with reports identical to an unconstrained run.
#[test]
fn slow_consumer_is_flow_controlled_not_fatal() {
    let epochs = racy_epochs();
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        let clean = run_program(3, protocol, 3, &epochs, None, |_| {}).expect("clean run");
        let plan = FaultPlan::clean(11)
            .with_link_capacity(1)
            .with_slow_consumer(ProcId(1), 5, Duration::from_millis(1));
        let slowed = run_program(3, protocol, 3, &epochs, Some(plan), |_| {})
            .expect("a slow consumer must not fail a run");
        assert_eq!(
            race_lines(&clean),
            race_lines(&slowed),
            "{protocol:?}: slow consumer changed the race reports"
        );
        assert!(
            slowed.resources.queue_high_water <= 1,
            "{protocol:?}: queue high water {} over capacity 1",
            slowed.resources.queue_high_water
        );
    }
}

/// Bounded checkpoint retention composes with recovery: with only one
/// complete cut retained, a scripted kill still rolls back to the newest
/// retained cut and completes with identical reports, while older epochs
/// are evicted as the run advances.
#[test]
fn retention_bound_recovery_steers_to_newest_cut() {
    let epochs: Vec<Vec<Op>> = (0..6)
        .map(|e| vec![(e % 2, 0, true), ((e + 1) % 2, 0, false), (0, 1, true)])
        .collect();
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        let recover = |cfg: &mut DsmConfig| {
            cfg.recovery = RecoveryPolicy::Recover { max_attempts: 3 };
            cfg.ckpt_retain = 1;
        };
        let clean =
            run_program(2, protocol, 3, &epochs, Some(fast_wire(3)), recover).expect("clean run");
        let killed = run_program(
            2,
            protocol,
            3,
            &epochs,
            Some(fast_wire(3).with_kill(ProcId(1), 60)),
            recover,
        )
        .expect("recovery must absorb the kill with one retained cut");
        assert_eq!(
            race_lines(&clean),
            race_lines(&killed),
            "{protocol:?}: recovered race reports must match"
        );
        // Six epochs against a one-cut bound: eviction must have fired.
        assert!(
            killed.resources.cuts_evicted > 0,
            "{protocol:?}: no cuts evicted — {:?}",
            killed.resources
        );
        assert!(killed.resources.checkpoint_bytes_live > 0);
    }
}

/// A consumer whose dwell exceeds the operation deadline is diagnosed as a
/// structured [`DsmError::Timeout`] (by the overload watchdog or a blocked
/// operation's deadline, whichever classifies first), never a hang or a
/// panic.  Node 1 dwells one second per wire arrival — its own page-fetch
/// reply cannot be processed inside the 300 ms deadline — while node 0 is
/// held out of the barrier long enough that only a timeout diagnosis can
/// fire first.
#[test]
fn overloaded_consumer_times_out_cleanly() {
    let started = Instant::now();
    let mut cfg = DsmConfig::new(2);
    cfg.op_deadline = Duration::from_millis(300);
    cfg.net_loss = Some(
        FaultPlan::clean(17)
            .with_link_capacity(1)
            // Peer-death detection must not classify first.
            .with_max_retransmits(u32::MAX)
            .with_slow_consumer(ProcId(1), 0, Duration::from_secs(1)),
    );
    let err = Cluster::run(
        cfg,
        |alloc| alloc.alloc("word", 8).unwrap(),
        |h, &base| {
            let mut ep = h.epochs();
            ep.step(|| {
                if h.proc() == 1 {
                    // Page 0 is homed on node 0: this blocks on a remote
                    // fetch whose reply sits behind our own dwell.
                    let _ = h.read(base.word(0));
                } else {
                    h.write(base.word(0), 7);
                    // Stay out of the barrier past node 1's op deadline so
                    // the master's missing-arrival diagnosis cannot win.
                    std::thread::sleep(Duration::from_millis(150));
                }
            });
        },
    )
    .expect_err("an overloaded consumer must fail the run");
    assert!(
        matches!(err.error, DsmError::Timeout { .. }),
        "expected a timeout diagnosis, got {:?}",
        err.error
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "diagnosis took {:?}",
        started.elapsed()
    );
    assert_eq!(err.partial.nodes.len(), 2, "both nodes drain");
}
