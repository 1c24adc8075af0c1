//! Chaos soak: the daemon under concurrent hostile load.
//!
//! A mixed fleet of jobs — scripted node kills, wire corruption, injected
//! detector-stage panics, synthetic flaky failures, deadline overruns —
//! runs concurrently on one daemon.  The suite asserts the full
//! robustness contract: every job reaches a terminal state within a
//! deadline (no hang), the daemon still serves afterwards, retries are
//! counted where injected, and every successful job's deduplicated races
//! are byte-identical (by stable fingerprint) to direct
//! [`Cluster::run`](cvm_dsm::Cluster::run) executions of the same seeds.
//!
//! `CVM_SEED` shifts every job's seed base (`cvm_testkit::seed`).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use cvm_dsm::RecoveryPolicy;
use cvm_service::json::Value;
use cvm_service::tcp::handle_line;
use cvm_service::{run_direct, Daemon, DaemonConfig, JobId, JobPhase, JobSpec, KillSpec, Workload};

/// Seed base for the soak, shifted by `CVM_SEED`.
fn seed_base() -> u64 {
    cvm_testkit::seed().max(1)
}

fn wait_all_terminal(daemon: &Daemon, ids: &[JobId], budget: Duration) {
    let start = Instant::now();
    loop {
        let pending: Vec<JobId> = ids
            .iter()
            .copied()
            .filter(|id| !daemon.status(*id).expect("job known").phase.is_terminal())
            .collect();
        if pending.is_empty() {
            return;
        }
        assert!(
            start.elapsed() < budget,
            "soak hang: {pending:?} still non-terminal after {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Direct-run reference: the deduped fingerprints of every seed of `spec`.
fn direct_fingerprints(spec: &JobSpec) -> BTreeSet<u64> {
    let mut prints = BTreeSet::new();
    for seed in spec.seeds() {
        let report = run_direct(spec, seed).expect("direct reference run");
        prints.extend(report.races.distinct_fingerprints());
    }
    prints
}

#[test]
fn chaos_soak_all_jobs_terminal_and_reports_exact() {
    let base = seed_base();
    let daemon = Daemon::start(DaemonConfig {
        workers: 4,
        queue_capacity: 32,
        ..DaemonConfig::default()
    });

    // --- The fleet -------------------------------------------------------
    // Healthy, racy: must finish Done with races.
    let racy = JobSpec::new(Workload::RacyCounter { epochs: 2 }, 3, base, 3);

    // Corrupted + lossy wire under recovery: the reliability layer's
    // checksum gate and retransmits must make this complete with reports
    // identical to the same config run directly.
    let mut corrupted = JobSpec::new(Workload::MixedStripes { epochs: 2 }, 3, base + 10, 3);
    corrupted.fault.drop_rate = 0.05;
    corrupted.fault.corrupt_rate = 0.05;
    corrupted.recovery = RecoveryPolicy::Recover { max_attempts: 3 };

    // Scripted kill + recovery: the victim dies mid-run, the cluster
    // rolls back and completes.
    let mut killed_recovering = JobSpec::new(Workload::RacyCounter { epochs: 3 }, 3, base + 20, 2);
    killed_recovering.fault.kill = Some(KillSpec {
        node: 1,
        at_event: 10,
    });
    killed_recovering.recovery = RecoveryPolicy::Recover { max_attempts: 3 };

    // Scripted kill + abort: every attempt fails transiently, the retry
    // budget is consumed, the job ends Failed — with retries counted.
    let mut killed_aborting = JobSpec::new(Workload::RacyCounter { epochs: 3 }, 3, base + 30, 1);
    killed_aborting.fault.kill = Some(KillSpec {
        node: 1,
        at_event: 10,
    });
    killed_aborting.recovery = RecoveryPolicy::Abort;
    killed_aborting.retry_budget = 2;

    // Injected detection-stage panic: contained by the cluster as a
    // terminal protocol failure, never retried.
    let mut stage_panic = JobSpec::new(Workload::DisjointGrid { epochs: 3 }, 2, base + 40, 1);
    stage_panic.pipelined = true;
    stage_panic.stage_panic_epoch = Some(1);

    // Genuine application panic: re-thrown out of `Cluster::run`, caught
    // by the pool's own crash isolation.
    let app_panic = JobSpec::new(Workload::PanickyApp { epochs: 2 }, 2, base + 45, 1);

    // Synthetic flakiness: two injected transient failures, then a real
    // run that succeeds.
    let mut flaky = JobSpec::new(Workload::DisjointGrid { epochs: 2 }, 2, base + 50, 2);
    flaky.flaky_first = 2;
    flaky.retry_budget = 8;

    // Deadline overruns: dwell makes each attempt blow its budget.
    let mut overrunning = JobSpec::new(
        Workload::SleepyGrid {
            epochs: 50,
            dwell_ms: 100,
        },
        2,
        base + 60,
        1,
    );
    overrunning.run_deadline = Duration::from_millis(200);
    overrunning.retry_budget = 1;

    // --- Submit everything concurrently ---------------------------------
    let specs = [
        ("racy", racy.clone()),
        ("corrupted", corrupted.clone()),
        ("killed_recovering", killed_recovering.clone()),
        ("killed_aborting", killed_aborting),
        ("stage_panic", stage_panic),
        ("app_panic", app_panic),
        ("flaky", flaky),
        ("overrunning", overrunning),
    ];
    let handles: Vec<_> = specs
        .iter()
        .map(|(name, spec)| {
            let daemon = daemon.clone();
            let spec = spec.clone();
            let name = *name;
            std::thread::spawn(move || (name, daemon.submit(spec).expect("admitted")))
        })
        .collect();
    let ids: Vec<(&str, JobId)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let id = |name: &str| ids.iter().find(|(n, _)| *n == name).unwrap().1;

    // --- Everything terminal within the soak deadline, no hang ----------
    let all: Vec<JobId> = ids.iter().map(|(_, id)| *id).collect();
    wait_all_terminal(&daemon, &all, Duration::from_secs(240));

    // --- Per-job verdicts ------------------------------------------------
    let snap = |name: &str| daemon.status(id(name)).unwrap();

    assert_eq!(snap("racy").phase, JobPhase::Done);
    assert!(snap("racy").distinct_races > 0);

    assert_eq!(
        snap("corrupted").phase,
        JobPhase::Done,
        "{:?}",
        snap("corrupted")
    );
    assert_eq!(snap("killed_recovering").phase, JobPhase::Done);

    let aborting = snap("killed_aborting");
    assert_eq!(aborting.phase, JobPhase::Failed);
    assert_eq!(
        aborting.retries, 2,
        "kill under Abort consumed the whole budget"
    );
    let err = aborting.first_error.expect("failure rendered");
    assert!(
        err.contains("died") || err.contains("fail"),
        "names the kill: {err}"
    );

    let panicked = snap("stage_panic");
    assert_eq!(panicked.phase, JobPhase::Failed);
    assert_eq!(
        panicked.retries, 0,
        "stage panics are terminal, never retried"
    );
    assert!(panicked
        .first_error
        .expect("stage failure rendered")
        .contains("stage"));

    let crashed = snap("app_panic");
    assert_eq!(crashed.phase, JobPhase::Failed);
    assert_eq!(crashed.retries, 0, "app panics are terminal, never retried");
    assert!(crashed
        .first_error
        .expect("app panic rendered")
        .contains("panic"));

    let flaked = snap("flaky");
    assert_eq!(flaked.phase, JobPhase::Done);
    assert_eq!(flaked.retries, 4, "2 injected faults on each of 2 seeds");

    let overran = snap("overrunning");
    assert_eq!(overran.phase, JobPhase::Failed);
    assert!(overran.deadline_overruns >= 2);
    assert!(overran
        .first_error
        .expect("overrun rendered")
        .contains("deadline"));

    // --- Reports byte-identical to direct runs ---------------------------
    for (name, spec) in [
        ("racy", &racy),
        ("corrupted", &corrupted),
        ("killed_recovering", &killed_recovering),
    ] {
        let got: BTreeSet<u64> = daemon
            .races(id(name))
            .expect("results retained")
            .races
            .iter()
            .map(|r| r.fingerprint)
            .collect();
        assert_eq!(
            got,
            direct_fingerprints(spec),
            "{name}: service races must equal direct Cluster::run races"
        );
    }

    // --- The daemon is still serving after the storm ---------------------
    let after = daemon
        .submit(JobSpec::new(
            Workload::RacyCounter { epochs: 1 },
            2,
            base + 70,
            1,
        ))
        .expect("daemon still admits");
    wait_all_terminal(&daemon, &[after], Duration::from_secs(60));
    assert_eq!(daemon.status(after).unwrap().phase, JobPhase::Done);

    // Pool counters saw the chaos.
    let stats = daemon.stats();
    assert!(
        stats.pool.panics_caught >= 1,
        "the app panic reached the pool's catch_unwind"
    );
    assert!(stats.pool.retries >= 6, "kills and flakiness retried");
    assert!(stats.pool.deadline_overruns >= 2);
    assert_eq!(stats.jobs_submitted, 9);
}

#[test]
fn graceful_drain_mid_load_leaves_every_job_terminal() {
    let base = seed_base();
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        queue_capacity: 16,
        ..DaemonConfig::default()
    });

    // A mix of fast jobs and slow jobs that cannot finish in the drain
    // window.
    let mut ids = Vec::new();
    for i in 0..3u64 {
        ids.push(
            daemon
                .submit(JobSpec::new(
                    Workload::RacyCounter { epochs: 1 },
                    2,
                    base + i,
                    1,
                ))
                .expect("fast job admitted"),
        );
    }
    for i in 0..3u64 {
        ids.push(
            daemon
                .submit(JobSpec::new(
                    Workload::SleepyGrid {
                        epochs: 100,
                        dwell_ms: 50,
                    },
                    2,
                    base + 100 + i,
                    1,
                ))
                .expect("slow job admitted"),
        );
    }

    // Drain mid-load with a window long enough for the fast jobs only.
    let report = daemon.drain(Duration::from_secs(2));
    assert!(report.jobs_cancelled > 0, "slow jobs had to be cancelled");

    // Every accepted job is terminal; none is lost or stuck.
    for id in &ids {
        let snap = daemon.status(*id).expect("job known after drain");
        assert!(
            snap.phase.is_terminal(),
            "{id} left non-terminal by drain: {:?}",
            snap.phase
        );
        assert_eq!(
            snap.seeds_done + snap.seeds_failed + snap.seeds_cancelled,
            snap.seeds_total,
            "{id}: every seed has a terminal outcome"
        );
    }

    // Admission is closed for good.
    assert!(matches!(
        daemon.submit(JobSpec::new(Workload::RacyCounter { epochs: 1 }, 2, 1, 1)),
        Err(cvm_service::SubmitError::Draining)
    ));
    assert!(daemon.stats().draining);
}

#[test]
fn soak_through_the_wire_protocol() {
    // The same storm shape driven through the JSON protocol layer (no
    // sockets: `handle_line` is the exact function the TCP threads call).
    let base = seed_base();
    let daemon = Daemon::start(DaemonConfig {
        workers: 3,
        ..DaemonConfig::default()
    });

    let submit = |line: String| -> u64 {
        let response = handle_line(&daemon, &line);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "submit rejected: {response}"
        );
        response.get("job").and_then(Value::as_u64).unwrap()
    };
    let racy = submit(format!(
        r#"{{"op":"submit","workload":"racy_counter","epochs":2,"nprocs":3,"seed_base":{base},"seed_count":2}}"#
    ));
    let killed = submit(format!(
        r#"{{"op":"submit","workload":"racy_counter","epochs":3,"nprocs":3,"seed_base":{},"seed_count":1,"kill_node":1,"kill_at_event":40,"recover_attempts":3}}"#,
        base + 10
    ));
    let flaky = submit(format!(
        r#"{{"op":"submit","workload":"disjoint_grid","epochs":1,"nprocs":2,"seed_base":{},"seed_count":1,"flaky_first":1,"retry_budget":4}}"#,
        base + 20
    ));

    let deadline = Instant::now() + Duration::from_secs(120);
    for job in [racy, killed, flaky] {
        loop {
            let status = handle_line(&daemon, &format!(r#"{{"op":"status","job":{job}}}"#));
            match status.get("phase").and_then(Value::as_str) {
                Some("queued" | "running") => {
                    assert!(Instant::now() < deadline, "job {job} stuck");
                    std::thread::sleep(Duration::from_millis(20));
                }
                Some("done") => break,
                other => panic!("job {job} ended {other:?}"),
            }
        }
    }

    // Flaky retried exactly once, visible over the wire.
    let status = handle_line(&daemon, &format!(r#"{{"op":"status","job":{flaky}}}"#));
    assert_eq!(status.get("retries").and_then(Value::as_u64), Some(1));

    // Races of the racy job travel as hex fingerprints.
    let races = handle_line(&daemon, &format!(r#"{{"op":"races","job":{racy}}}"#));
    let items = races.get("races").and_then(Value::as_arr).unwrap();
    assert!(!items.is_empty());

    // Drain over the wire: clean shutdown verdict on an idle daemon.
    let drained = handle_line(&daemon, r#"{"op":"drain","deadline_ms":30000}"#);
    assert_eq!(drained.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(drained.get("clean").and_then(Value::as_bool), Some(true));
}
