//! Service-level integration tests: the daemon's contract as seen by a
//! client — admission, lifecycle, backpressure, cancellation, the wire
//! protocol, and daemon/direct result equivalence.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cvm_service::json::{parse, Value};
use cvm_service::{
    run_direct, Daemon, DaemonConfig, JobId, JobPhase, JobSnapshot, JobSpec, SubmitError,
    TcpFrontEnd, Workload,
};

fn wait_terminal(daemon: &Daemon, id: JobId, budget: Duration) -> JobSnapshot {
    let start = Instant::now();
    loop {
        let snap = daemon.status(id).expect("job known");
        if snap.phase.is_terminal() {
            return snap;
        }
        assert!(
            start.elapsed() < budget,
            "{id} stuck in {:?} after {budget:?}",
            snap.phase
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn daemon_results_match_direct_runs_exactly() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 3,
        ..DaemonConfig::default()
    });
    let spec = JobSpec::new(Workload::MixedStripes { epochs: 2 }, 3, 11, 4);
    let id = daemon.submit(spec.clone()).expect("admitted");
    let snap = wait_terminal(&daemon, id, Duration::from_secs(60));
    assert_eq!(snap.phase, JobPhase::Done);

    // Reference: the same seeds run directly, deduped by fingerprint.
    let mut expected = std::collections::BTreeSet::new();
    for seed in spec.seeds() {
        let report = run_direct(&spec, seed).expect("direct run");
        expected.extend(report.races.distinct_fingerprints());
    }
    let got: std::collections::BTreeSet<u64> = daemon
        .races(id)
        .expect("results retained")
        .races
        .iter()
        .map(|r| r.fingerprint)
        .collect();
    assert_eq!(got, expected, "service dedup must equal direct-run dedup");
    assert_eq!(snap.distinct_races, expected.len());
}

#[test]
fn concurrent_submitters_respect_the_admission_bound() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        queue_capacity: 4,
        ..DaemonConfig::default()
    });
    // 12 threads race to submit slow jobs into 4 slots.
    let handles: Vec<_> = (0..12u32)
        .map(|i| {
            let daemon = daemon.clone();
            std::thread::spawn(move || {
                let spec = JobSpec::new(
                    Workload::SleepyGrid {
                        epochs: 20,
                        dwell_ms: 25,
                    },
                    2,
                    u64::from(i),
                    1,
                );
                daemon.submit(spec)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let admitted: Vec<JobId> = results
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .collect();
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(SubmitError::QueueFull { .. })))
        .count();
    assert_eq!(admitted.len(), 4, "exactly the capacity admitted");
    assert_eq!(rejected, 8, "the rest saw QueueFull");
    for id in &admitted {
        daemon.cancel(*id);
    }
    for id in admitted {
        wait_terminal(&daemon, id, Duration::from_secs(30));
    }
    assert_eq!(daemon.stats().jobs_rejected, 8);
}

#[test]
fn cancellation_mid_job_is_prompt_and_terminal() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let spec = JobSpec::new(
        Workload::SleepyGrid {
            epochs: 200,
            dwell_ms: 50,
        },
        2,
        1,
        4,
    );
    let id = daemon.submit(spec).expect("admitted");
    std::thread::sleep(Duration::from_millis(150));
    assert!(daemon.cancel(id));
    let started = Instant::now();
    let snap = wait_terminal(&daemon, id, Duration::from_secs(15));
    assert_eq!(snap.phase, JobPhase::Cancelled);
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "cancel latency bounded by cluster poll, not run length (10s of dwell left)"
    );
    assert_eq!(
        snap.seeds_done + snap.seeds_failed + snap.seeds_cancelled,
        snap.seeds_total,
        "every seed reached a terminal outcome"
    );
    assert!(snap.seeds_cancelled > 0);
}

/// Cancelling a seed mid-run ends it at its processes' next protocol op:
/// a 256-epoch, 200 ms-dwell grid (51 s of dwell) is terminal within 5 s,
/// though its two processes reach every barrier together and so never
/// wait long enough to poll for the failure.
#[test]
fn cancelling_a_running_sleepy_grid_is_terminal_within_five_seconds() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let spec = JobSpec::new(
        Workload::SleepyGrid {
            epochs: 256,
            dwell_ms: 200,
        },
        2,
        1,
        1,
    );
    let id = daemon.submit(spec).expect("admitted");
    let start = Instant::now();
    while daemon.status(id).expect("job known").phase != JobPhase::Running {
        assert!(start.elapsed() < Duration::from_secs(10), "seed never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Some epochs into the run.
    std::thread::sleep(Duration::from_millis(700));
    assert!(daemon.cancel(id));
    let snap = wait_terminal(&daemon, id, Duration::from_secs(5));
    assert_eq!(snap.phase, JobPhase::Cancelled);
    assert_eq!(snap.seeds_cancelled, 1);
}

#[test]
fn multiple_jobs_interleave_without_cross_talk() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 4,
        ..DaemonConfig::default()
    });
    let racy = daemon
        .submit(JobSpec::new(Workload::RacyCounter { epochs: 2 }, 2, 1, 3))
        .expect("racy admitted");
    let clean = daemon
        .submit(JobSpec::new(Workload::DisjointGrid { epochs: 2 }, 3, 1, 3))
        .expect("clean admitted");
    let racy_snap = wait_terminal(&daemon, racy, Duration::from_secs(60));
    let clean_snap = wait_terminal(&daemon, clean, Duration::from_secs(60));
    assert_eq!(racy_snap.phase, JobPhase::Done);
    assert_eq!(clean_snap.phase, JobPhase::Done);
    assert!(racy_snap.distinct_races > 0, "racy job surfaces races");
    assert_eq!(clean_snap.distinct_races, 0, "clean job stays clean");
    let clean_races = daemon.races(clean).expect("sealed");
    assert!(clean_races.races.is_empty());
    assert_eq!(clean_races.reports_merged, 0);
}

#[test]
fn tcp_front_end_serves_many_clients_and_survives_garbage() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let front = TcpFrontEnd::serve(daemon.clone(), "127.0.0.1:0").unwrap();
    let addr = front.addr();

    let ask = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| -> Value {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        parse(response.trim()).expect("well-formed response")
    };

    // Client 1 sends garbage, then a valid ping on the same connection.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w1 = stream.try_clone().unwrap();
    let mut r1 = BufReader::new(stream);
    let bad = ask(&mut w1, &mut r1, "{{{{ not json");
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    let pong = ask(&mut w1, &mut r1, r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));

    // Clients 2..=4 submit and poll concurrently.
    let handles: Vec<_> = (0..3u64)
        .map(|i| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut w = stream.try_clone().unwrap();
                let mut r = BufReader::new(stream);
                let ask = |w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str| {
                    w.write_all(format!("{line}\n").as_bytes()).unwrap();
                    let mut response = String::new();
                    r.read_line(&mut response).unwrap();
                    parse(response.trim()).unwrap()
                };
                let submitted = ask(
                    &mut w,
                    &mut r,
                    &format!(
                        r#"{{"op":"submit","workload":"racy_counter","epochs":1,"nprocs":2,"seed_base":{},"seed_count":1}}"#,
                        i * 100 + 1
                    ),
                );
                assert_eq!(submitted.get("ok").and_then(Value::as_bool), Some(true));
                let job = submitted.get("job").and_then(Value::as_u64).unwrap();
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    let status = ask(&mut w, &mut r, &format!(r#"{{"op":"status","job":{job}}}"#));
                    match status.get("phase").and_then(Value::as_str) {
                        Some("queued" | "running") => {
                            assert!(Instant::now() < deadline);
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Some(phase) => break phase.to_string(),
                        None => panic!("malformed status: {status}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), "done");
    }
    assert_eq!(daemon.stats().jobs_submitted, 3);
}
