//! Scripted faults against full cluster runs: kills and partitions must
//! surface as structured [`DsmError`]s within the configured deadline —
//! never a hang, never a panic — and the same `(FaultPlan, seed)` must
//! reproduce the same outcome.

use std::time::{Duration, Instant};

use cvm_dsm::{Cluster, DsmConfig, DsmError, FaultPlan, Protocol, RunError};
use cvm_testkit::fast_wire;
use cvm_vclock::ProcId;

/// A cluster whose node 1 is scripted to die mid-run.  The reliability
/// layer's RTO/backoff is tightened so peers declare the corpse dead in
/// tens of milliseconds rather than the deployment defaults.
fn killed_node_config(protocol: Protocol, seed: u64) -> DsmConfig {
    let mut cfg = DsmConfig::new(3);
    cfg.protocol = protocol;
    cfg.op_deadline = Duration::from_secs(2);
    cfg.net_loss = Some(fast_wire(seed).with_kill(ProcId(1), 40));
    cfg
}

/// Runs a barrier loop that would take many hundreds of engine events to
/// complete, guaranteeing the scripted fault fires mid-protocol.
fn run_barrier_loop(cfg: DsmConfig) -> (Result<(), RunError>, Duration) {
    let started = Instant::now();
    let result = Cluster::run(
        cfg,
        |alloc| alloc.alloc("words", 3 * 8).unwrap(),
        |h, &base| {
            let me = h.proc();
            for i in 0..200u64 {
                h.write(base.word(me as u64), i);
                h.barrier();
            }
        },
    )
    .map(|_| ());
    (result, started.elapsed())
}

fn assert_kill_diagnosed(protocol: Protocol) {
    let (result, elapsed) = run_barrier_loop(killed_node_config(protocol, 42));
    let err = result.expect_err("a killed node must fail the run");
    assert_eq!(
        err.error,
        DsmError::NodeFailed { proc: 1 },
        "{protocol:?}: the scripted victim must be named"
    );
    // No hang: the op deadline is 2s (barrier workers wait 1.5x so the
    // master classifies first); peer-death detection fires in tens of
    // milliseconds, well before any deadline.  Allow generous slack for
    // the drain on loaded machines.
    assert!(
        elapsed < Duration::from_secs(8),
        "{protocol:?}: diagnosis took {elapsed:?}"
    );
    // Every node drains and contributes partial statistics.
    assert_eq!(err.partial.nodes.len(), 3);
    // The victim's own endpoint reports the kill (Disconnected) milliseconds
    // before peers exhaust retransmits, so `peers_declared_dead` may still be
    // zero at drain time — the structured error above is the contract.
    assert!(
        err.partial.reliability.is_some(),
        "faulty runs carry reliability stats"
    );
}

#[test]
fn killed_node_is_diagnosed_under_single_writer() {
    assert_kill_diagnosed(Protocol::SingleWriter);
}

#[test]
fn killed_node_is_diagnosed_under_multi_writer() {
    assert_kill_diagnosed(Protocol::MultiWriter);
}

#[test]
fn same_fault_plan_reproduces_the_same_diagnosis() {
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        let (first, _) = run_barrier_loop(killed_node_config(protocol, 7));
        let (second, _) = run_barrier_loop(killed_node_config(protocol, 7));
        assert_eq!(
            first.expect_err("kill").error,
            second.expect_err("kill").error,
            "{protocol:?}: the scripted fault must reproduce"
        );
    }
}

fn assert_lock_manager_death_diagnosed(protocol: Protocol) {
    // Lock 1's static manager is node 1 (`lock % nprocs`).  All three
    // processes contend on it in a tight loop, so when node 1 dies there
    // are requests queued at (or in flight to) the dead manager.  The
    // survivors' blocked acquires must convert into the structured
    // failure, not a hang.
    let mut cfg = DsmConfig::new(3);
    cfg.protocol = protocol;
    cfg.op_deadline = Duration::from_secs(2);
    cfg.net_loss = Some(fast_wire(31).with_kill(ProcId(1), 50));
    let started = Instant::now();
    let result = Cluster::run(
        cfg,
        |alloc| alloc.alloc("counter", 8).unwrap(),
        |h, &ctr| {
            for _ in 0..200 {
                h.lock(1);
                let v = h.read(ctr);
                h.write(ctr, v + 1);
                h.unlock(1);
            }
            h.barrier();
        },
    )
    .map(|_| ());
    let elapsed = started.elapsed();
    let err = result.expect_err("a dead lock manager must fail the run");
    assert_eq!(
        err.error,
        DsmError::NodeFailed { proc: 1 },
        "{protocol:?}: the dead manager must be named"
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "{protocol:?}: diagnosis took {elapsed:?}"
    );
    assert_eq!(err.partial.nodes.len(), 3, "every node drains");
}

#[test]
fn lock_manager_death_is_diagnosed_under_single_writer() {
    assert_lock_manager_death_diagnosed(Protocol::SingleWriter);
}

#[test]
fn lock_manager_death_is_diagnosed_under_multi_writer() {
    assert_lock_manager_death_diagnosed(Protocol::MultiWriter);
}

#[test]
fn partitioned_node_fails_the_run_within_the_deadline() {
    // Node 1 partitions after 20 datagrams: its traffic is eaten in both
    // directions.  Retransmission exhaustion is symmetric — node 1
    // declares its peers dead at the same time they declare *it* dead —
    // so the first diagnosis may name either side; what matters is a
    // prompt structured failure, not a hang.
    let mut cfg = DsmConfig::new(3);
    cfg.op_deadline = Duration::from_secs(2);
    cfg.net_loss = Some(fast_wire(13).with_partition(ProcId(1), 20));
    let (result, elapsed) = run_barrier_loop(cfg);
    let err = result.expect_err("a partitioned node must fail the run");
    assert!(
        matches!(err.error, DsmError::NodeFailed { .. }),
        "expected a node-failure diagnosis, got {:?}",
        err.error
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "diagnosis took {elapsed:?}"
    );
    let reliability = err.partial.reliability.as_ref().unwrap();
    assert!(
        reliability.partition_drops > 0,
        "the partition must actually eat datagrams"
    );
}

#[test]
fn lossy_wire_does_not_fail_healthy_runs() {
    // Plain Bernoulli loss (no scripted faults) is repaired end-to-end:
    // the run completes, reports no failure, and the race detector sees
    // the same race-free program it would on perfect channels.
    let mut cfg = DsmConfig::new(3);
    cfg.net_loss = Some(FaultPlan::new(0.2, 99));
    let report = Cluster::run(
        cfg,
        |alloc| alloc.alloc("words", 3 * 8).unwrap(),
        |h, &base| {
            let me = h.proc();
            for i in 0..20u64 {
                h.write(base.word(me as u64), i);
                h.barrier();
            }
        },
    )
    .expect("loss alone must not fail a run");
    assert!(report.races.is_empty());
    let reliability = report.reliability.expect("lossy runs carry stats");
    assert!(reliability.wire_drops > 0, "the wire must actually drop");
    // Gap NAKs can repair every drop before a retransmission timer fires.
    assert!(
        reliability.retransmissions + reliability.repairs > 0,
        "drops must be repaired"
    );
}

#[test]
fn cancel_token_drains_a_running_cluster() {
    // A long barrier loop cancelled mid-run must return the structured
    // `Cancelled` error with a partial report, well inside the op
    // deadline — the cancellation path is the fault path minus the fault.
    let token = cvm_dsm::CancelToken::new();
    let mut cfg = DsmConfig::new(3);
    cfg.op_deadline = Duration::from_secs(30);
    cfg.cancel = Some(token.clone());
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let started = Instant::now();
    let err = Cluster::run(
        cfg,
        |alloc| alloc.alloc("words", 3 * 8).unwrap(),
        |h, &base| {
            let me = h.proc();
            for i in 0..100_000u64 {
                h.write(base.word(me as u64), i);
                h.barrier();
            }
        },
    )
    .expect_err("a cancelled run must not complete");
    canceller.join().unwrap();
    assert_eq!(err.error, DsmError::Cancelled);
    assert!(!err.is_transient(), "cancellation must not be retried");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "cancellation must drain promptly, took {:?}",
        started.elapsed()
    );
    // The drain still collected per-node statistics.
    assert_eq!(err.partial.nodes.len(), 3);
}

#[test]
fn pre_cancelled_token_stops_the_run_at_first_poll() {
    let token = cvm_dsm::CancelToken::new();
    token.cancel();
    let mut cfg = DsmConfig::new(2);
    cfg.cancel = Some(token);
    let err = Cluster::run(
        cfg,
        |alloc| alloc.alloc("w", 16).unwrap(),
        |h, &w| {
            let me = h.proc();
            for i in 0..100_000u64 {
                h.write(w.word(me as u64), i);
                h.barrier();
            }
        },
    )
    .expect_err("a pre-cancelled run must not complete");
    assert_eq!(err.error, DsmError::Cancelled);
}
