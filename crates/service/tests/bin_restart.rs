//! Kill-and-restart against the real `cvm-service` binary: at every
//! persistence crash point the process is aborted mid-journal (the
//! `--crash POINT:N` flag scripts `std::process::abort()`), restarted
//! from the same `--data-dir`, and must converge to the same terminal
//! status and race fingerprints as an uninterrupted run of the same
//! spec.  `CVM_SEED` shifts both the workload seeds and which record the
//! abort lands on.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cvm_service::json::{parse, Value};
use cvm_service::CrashPoint;
use cvm_testkit::{scratch_dir, seed};

struct DaemonProc {
    child: Child,
    addr: String,
}

fn spawn_daemon(extra: &[&str]) -> DaemonProc {
    let mut args = vec!["--addr", "127.0.0.1:0", "--workers", "2"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_cvm-service"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cvm-service");
    let stdout = child.stdout.take().expect("stdout piped");
    let first = BufReader::new(stdout)
        .lines()
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first}"))
        .trim()
        .to_string();
    DaemonProc { child, addr }
}

fn wait_with_deadline(child: &mut Child, budget: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(
            start.elapsed() < budget,
            "daemon did not exit within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn ask(&mut self, line: &str) -> Value {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response read");
        parse(response.trim()).expect("well-formed response")
    }
}

/// Order-insensitive result image of one job, read over the protocol.
#[derive(Debug, PartialEq, Eq)]
struct JobImage {
    phase: String,
    seeds_done: u64,
    races: Vec<(String, u64)>,
    reports_merged: u64,
}

/// Polls `job` to a terminal phase, then reads its deduplicated races.
fn image_of(client: &mut Client, job: u64, budget: Duration) -> JobImage {
    let start = Instant::now();
    let status = loop {
        let status = client.ask(&format!(r#"{{"op":"status","job":{job}}}"#));
        let phase = status
            .get("phase")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("status has a phase: {status}"));
        if matches!(phase, "done" | "failed" | "cancelled") {
            break status;
        }
        assert!(
            start.elapsed() < budget,
            "job {job} never went terminal: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let races = client.ask(&format!(r#"{{"op":"races","job":{job}}}"#));
    assert_eq!(
        races.get("ok").and_then(Value::as_bool),
        Some(true),
        "{races}"
    );
    let mut pairs: Vec<(String, u64)> = races
        .get("races")
        .and_then(Value::as_arr)
        .expect("races array")
        .iter()
        .map(|r| {
            (
                r.get("fingerprint")
                    .and_then(Value::as_str)
                    .expect("hex fingerprint")
                    .to_string(),
                r.get("hits").and_then(Value::as_u64).expect("hits"),
            )
        })
        .collect();
    pairs.sort();
    JobImage {
        phase: status
            .get("phase")
            .and_then(Value::as_str)
            .unwrap()
            .to_string(),
        seeds_done: status.get("seeds_done").and_then(Value::as_u64).unwrap(),
        races: pairs,
        reports_merged: races.get("reports_merged").and_then(Value::as_u64).unwrap(),
    }
}

const SUBMIT: &str = r#"{"op":"submit","workload":"racy_counter","epochs":2,"nprocs":2,"seed_base":SEED,"seed_count":3}"#;

fn submit_hunt(client: &mut Client) -> u64 {
    let line = SUBMIT.replace("SEED", &seed().max(1).to_string());
    let response = client.ask(&line);
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );
    response.get("job").and_then(Value::as_u64).expect("job id")
}

fn drain(daemon: &mut DaemonProc) -> std::process::ExitStatus {
    daemon
        .child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"drain\n")
        .expect("drain delivered");
    wait_with_deadline(&mut daemon.child, Duration::from_secs(60))
}

/// The uninterrupted run the crashed-and-recovered one must match.
fn reference_image() -> JobImage {
    let mut daemon = spawn_daemon(&[]);
    let mut client = Client::connect(&daemon.addr);
    let job = submit_hunt(&mut client);
    let image = image_of(&mut client, job, Duration::from_secs(60));
    assert_eq!(image.phase, "done", "reference run completes: {image:?}");
    assert!(!image.races.is_empty(), "racy workload must race");
    drop(client);
    assert!(drain(&mut daemon).success());
    image
}

/// Aborts the daemon at `point` mid-hunt, restarts it on the same data
/// directory, and asserts the recovered job converges to `reference`.
fn crash_restart_and_compare(point: CrashPoint, reference: &JobImage) {
    let dir = scratch_dir(point.name());
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();
    // One 3-seed job journals: Submitted, SeedDone x3, Sealed — and
    // `--compact-every 3` fires a compaction after the third record.
    // Record-level points abort within records 2..=5 (always after the
    // Submitted record is durable, so the admission must survive);
    // compaction-level points abort at the first compaction.
    let at = match point {
        CrashPoint::MidRecord | CrashPoint::PostRecordPreFsync => 2 + (seed().max(1) % 4),
        CrashPoint::MidCompaction | CrashPoint::PostSnapshotPreTrim => 1,
    };
    let crash = format!("{}:{at}", point.name());
    let mut daemon = spawn_daemon(&[
        "--data-dir",
        &dir_str,
        "--fsync",
        "always",
        "--compact-every",
        "3",
        "--crash",
        &crash,
    ]);
    let mut client = Client::connect(&daemon.addr);
    let job = submit_hunt(&mut client);
    drop(client);

    // The scripted abort is not a graceful exit.
    let status = wait_with_deadline(&mut daemon.child, Duration::from_secs(60));
    assert!(
        !status.success(),
        "{crash} must abort the process, got {status:?}"
    );

    // Restart clean on the same directory: the job must be present,
    // converge to the reference image, and drain cleanly.
    let mut daemon = spawn_daemon(&["--data-dir", &dir_str, "--fsync", "always"]);
    let mut client = Client::connect(&daemon.addr);
    let image = image_of(&mut client, job, Duration::from_secs(60));
    assert_eq!(&image, reference, "divergence after {crash}");
    if point == CrashPoint::MidRecord {
        // A mid-record abort leaves a torn tail; recovery must have
        // counted the truncation rather than panicking over it.
        let stats = client.ask(r#"{"op":"stats"}"#);
        let torn = stats
            .get("torn_tail_truncations")
            .and_then(Value::as_u64)
            .expect("stats carry truncations");
        assert!(torn >= 1, "torn tail counted: {stats}");
    }
    drop(client);
    assert!(
        drain(&mut daemon).success(),
        "recovered daemon drains clean"
    );

    let mut stderr = String::new();
    std::io::Read::read_to_string(
        &mut daemon.child.stderr.take().expect("stderr piped"),
        &mut stderr,
    )
    .expect("readable stderr");
    assert!(
        stderr.contains("durable:"),
        "shutdown report renders persistence counters: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abort_mid_record_recovers_identical_results() {
    crash_restart_and_compare(CrashPoint::MidRecord, &reference_image());
}

#[test]
fn abort_post_record_pre_fsync_recovers_identical_results() {
    crash_restart_and_compare(CrashPoint::PostRecordPreFsync, &reference_image());
}

#[test]
fn abort_mid_compaction_recovers_identical_results() {
    crash_restart_and_compare(CrashPoint::MidCompaction, &reference_image());
}

#[test]
fn abort_post_snapshot_pre_trim_recovers_identical_results() {
    crash_restart_and_compare(CrashPoint::PostSnapshotPreTrim, &reference_image());
}
