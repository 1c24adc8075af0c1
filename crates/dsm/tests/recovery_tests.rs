//! Barrier-epoch checkpoint recovery: a scripted kill under
//! [`RecoveryPolicy::Recover`] must roll back to the last complete epoch,
//! restore every node from its image, and complete the run with race
//! reports byte-identical to a fault-free execution.

use std::time::Duration;

use cvm_dsm::{Cluster, DsmConfig, Protocol, RecoveryPolicy, RunError, RunReport};
use cvm_testkit::{assert_matches, fast_wire, Fault, Reference, Scenario, Wire};
use cvm_vclock::ProcId;

const NPROCS: usize = 3;

/// Barrier-epoch loop with one deliberate write-write race per epoch pair:
/// processes 0 and 1 both write the `Racy` word in every epoch, so every
/// epoch's detection finds the same race and the full report sequence
/// fingerprints the whole run.
fn run_epoch_loop(cfg: DsmConfig) -> Result<RunReport, RunError> {
    Cluster::run(
        cfg,
        |alloc| {
            let base = alloc.alloc("words", NPROCS as u64 * 8).unwrap();
            let racy = alloc.alloc("Racy", 8).unwrap();
            (base, racy)
        },
        |h, &(base, racy)| {
            let me = h.proc();
            let mut ep = h.epochs();
            for i in 0..12u64 {
                ep.step(|| {
                    h.write(base.word(me as u64), i * 100 + me as u64);
                    if me < 2 {
                        h.write(racy, i);
                    }
                });
            }
        },
    )
}

fn base_config(protocol: Protocol) -> DsmConfig {
    let mut cfg = DsmConfig::new(NPROCS);
    cfg.protocol = protocol;
    cfg.op_deadline = Duration::from_secs(2);
    cfg
}

/// Scripts `victim`'s death mid-run and asks for recovery.
fn killed(protocol: Protocol, victim: u16) -> Scenario {
    Scenario {
        protocol,
        recovery: RecoveryPolicy::Recover { max_attempts: 3 },
        wire: Wire::Fast(23),
        faults: vec![Fault::Kill {
            victim,
            at_event: 60,
        }],
        ..Scenario::new(NPROCS)
    }
}

/// Every victim — the master, a worker, the last node — on both protocols:
/// the recovered run's reports equal the fault-free run's, and restored
/// statistics plus replayed epochs add up to the full run.
#[test]
fn kill_recovers_every_victim() {
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        let clean = Reference::run(&killed(protocol, 0), run_epoch_loop);
        for victim in [0u16, 1, 2] {
            let cell = killed(protocol, victim);
            let recovered = assert_matches(&cell, &clean, run_epoch_loop);
            let r = recovered.recovery;
            assert!(
                r.recoveries >= 1,
                "{cell:?}: the kill must trigger recovery"
            );
            assert!(
                r.backoff_waits >= 1,
                "{cell:?}: retry attempts must back off"
            );
            if victim == 0 {
                // Killing the barrier master re-seats it on the lowest survivor.
                assert!(
                    r.failovers >= 1,
                    "{cell:?}: master death must move the seat"
                );
            } else {
                assert_eq!(
                    r.failovers, 0,
                    "{cell:?}: a worker death must not move the seat"
                );
            }
            assert!(
                r.checkpoints_taken > 0,
                "{cell:?}: checkpoints under Recover"
            );
            assert!(
                r.bytes_snapshotted > 0,
                "{cell:?}: snapshots must be accounted"
            );
            assert_eq!(
                recovered.barriers(),
                clean.report.barriers(),
                "{cell:?}: barrier accounting must survive recovery"
            );
        }
    }
}

#[test]
fn abort_policy_still_surfaces_the_failure() {
    let mut cfg = killed(Protocol::SingleWriter, 1).config();
    cfg.recovery = RecoveryPolicy::Abort;
    let err = run_epoch_loop(cfg).expect_err("Abort must not mask the kill");
    assert_eq!(err.error, cvm_dsm::DsmError::NodeFailed { proc: 1 });
    assert_eq!(err.partial.recovery, cvm_dsm::RecoveryStats::default());
}

#[test]
fn exhausted_attempts_surface_the_failure() {
    // A partition is not stripped between attempts (only the node itself
    // is replaced on recovery, not the broken wire), so every attempt
    // fails and the budget runs out.
    let mut cfg = base_config(Protocol::SingleWriter);
    cfg.net_loss = Some(fast_wire(5).with_partition(ProcId(1), 40));
    cfg.recovery = RecoveryPolicy::Recover { max_attempts: 2 };
    let err =
        run_epoch_loop(cfg).expect_err("a permanent partition must exhaust the attempt budget");
    assert_eq!(err.partial.recovery.recoveries, 2, "both attempts spent");
}

#[test]
fn minority_master_surfaces_quorum_lost_by_name() {
    // Attempt 1: the master (node 0) is killed, so attempt 2 re-seats the
    // master on node 1 — which a permanent partition has cut off from the
    // fabric since its first datagram.  The would-be master sits on the
    // minority side of the partition: it can never assemble the strict
    // majority of handoff acknowledgements (2 of 3, its own seat
    // included), and the attempt must surface the *named* quorum loss —
    // not a raw timeout, and not a generic peer-death — without retrying
    // (a minority cannot vote itself into a majority by trying again).
    let mut cfg = base_config(Protocol::SingleWriter);
    cfg.net_loss = Some(
        fast_wire(23)
            .with_kill(ProcId(0), 60)
            .with_partition(ProcId(1), 0),
    );
    cfg.recovery = RecoveryPolicy::Recover { max_attempts: 3 };
    let err = run_epoch_loop(cfg).expect_err("a minority-side master must not complete the run");
    match err.error {
        cvm_dsm::DsmError::QuorumLost { got, needed } => {
            assert_eq!(needed, 2, "3-node majority is 2");
            assert!(got < needed, "a lost quorum is short by definition");
        }
        other => panic!("expected QuorumLost by name, got {other:?}"),
    }
    assert!(
        !err.error.is_transient(),
        "quorum loss must not burn retry budget"
    );
    assert!(
        err.partial.recovery.quorum_losses >= 1,
        "the loss must be surfaced in the recovery counters"
    );
}

#[test]
fn lock_heavy_program_recovers_with_exact_state() {
    // A correctly-locked shared counter: each of the 3 processes adds 1
    // under lock 1 (whose manager, node 1, is the kill victim) in each of
    // 8 epochs.  Recovery restores lock-manager state and page contents
    // from the images; replayed epochs re-earn exactly the rolled-back
    // increments, so the final count proves state-exact recovery.
    const EPOCHS: u64 = 8;
    let run = |faulty: bool| -> (RunReport, u64) {
        let mut cfg = base_config(Protocol::MultiWriter);
        cfg.net_loss = Some(if faulty {
            fast_wire(17).with_kill(ProcId(1), 80)
        } else {
            fast_wire(17)
        });
        cfg.recovery = RecoveryPolicy::Recover { max_attempts: 3 };
        let total = std::sync::Mutex::new(0u64);
        let report = Cluster::run(
            cfg,
            |alloc| alloc.alloc("Counter", 8).unwrap(),
            |h, &ctr| {
                let mut ep = h.epochs();
                for _ in 0..EPOCHS {
                    ep.step(|| {
                        h.lock(1);
                        let v = h.read(ctr);
                        h.write(ctr, v + 1);
                        h.unlock(1);
                    });
                }
                ep.step(|| {
                    if h.proc() == 0 {
                        *total.lock().unwrap() = h.read(ctr);
                    }
                });
            },
        )
        .expect("run must complete");
        let total = *total.lock().unwrap();
        (report, total)
    };
    let (clean, clean_total) = run(false);
    assert_eq!(clean_total, EPOCHS * NPROCS as u64);
    assert!(clean.races.is_empty(), "locked counter is race-free");
    let (recovered, recovered_total) = run(true);
    assert!(recovered.recovery.recoveries >= 1, "the kill must recover");
    assert_eq!(
        recovered_total, clean_total,
        "replayed epochs must re-earn exactly the rolled-back increments"
    );
    assert!(recovered.races.is_empty());
}

#[test]
fn checkpoint_costs_flow_through_simtime() {
    // Same program, no faults: checkpointing on vs off.  A single-process
    // cluster makes virtual time fully deterministic (multi-node totals
    // depend on service-thread interleaving), so the per-word checkpoint
    // charge at every barrier release is directly observable.
    let run_one = |recovery: RecoveryPolicy| {
        let mut cfg = DsmConfig::new(1);
        cfg.op_deadline = Duration::from_secs(2);
        cfg.recovery = recovery;
        Cluster::run(
            cfg,
            |alloc| alloc.alloc("words", 8).unwrap(),
            |h, &base| {
                let mut ep = h.epochs();
                for i in 0..12u64 {
                    ep.step(|| h.write(base, i));
                }
            },
        )
        .expect("single-proc run")
    };
    let off = run_one(RecoveryPolicy::Abort);
    assert_eq!(
        off.recovery,
        cvm_dsm::RecoveryStats::default(),
        "Abort default must not checkpoint"
    );
    let on = run_one(RecoveryPolicy::Recover { max_attempts: 1 });
    assert!(on.recovery.checkpoints_taken > 0);
    assert_eq!(on.recovery.recoveries, 0, "no faults, no recoveries");
    assert!(
        on.virtual_cycles() > off.virtual_cycles(),
        "checkpoint cost must appear in virtual time: {} vs {}",
        on.virtual_cycles(),
        off.virtual_cycles()
    );
}
