//! Process-level graceful shutdown: the `cvm-service` binary under load.
//!
//! Spawns the real daemon binary, submits work over its TCP socket, then
//! delivers the drain signal (a `drain` line on stdin — the
//! SIGTERM-equivalent for a pipe-supervised process) *mid-load*.  The
//! contract: the process exits 0, and it only exits 0 when every accepted
//! job reached a terminal phase — slow jobs are allowed to be cancelled
//! by the drain window, but none may be lost or left running.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cvm_service::json::{parse, Value};

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
    // First stdout line announces the resolved address.
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
            "daemon did not exit within {budget:?} of the drain signal"
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

#[test]
fn drain_mid_load_exits_zero_with_every_job_terminal() {
    // Short drain window: the slow jobs cannot finish inside it and must
    // be cancelled — which still counts as terminal, so exit is 0.
    let mut daemon = spawn_daemon(&["--drain-ms", "5000"]);
    let mut client = Client::connect(&daemon.addr);

    let pong = client.ask(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));

    // A fast job and two slow jobs (≈5 s of dwell each).
    let fast = client.ask(
        r#"{"op":"submit","workload":"racy_counter","epochs":2,"nprocs":2,"seed_base":1,"seed_count":1}"#,
    );
    assert_eq!(fast.get("ok").and_then(Value::as_bool), Some(true));
    for seed in [10, 20] {
        let slow = client.ask(&format!(
            r#"{{"op":"submit","workload":"sleepy_grid","epochs":100,"dwell_ms":50,"nprocs":2,"seed_base":{seed},"seed_count":1}}"#
        ));
        assert_eq!(
            slow.get("ok").and_then(Value::as_bool),
            Some(true),
            "{slow}"
        );
    }

    // Mid-load drain: the SIGTERM-equivalent for a pipe-supervised
    // daemon.
    daemon
        .child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"drain\n")
        .expect("drain delivered");

    let status = wait_with_deadline(&mut daemon.child, Duration::from_secs(60));
    assert!(
        status.success(),
        "graceful drain must exit 0 (got {status:?})"
    );

    // The shutdown report names the load it drained.
    let mut stderr = String::new();
    std::io::Read::read_to_string(
        &mut daemon.child.stderr.take().expect("stderr piped"),
        &mut stderr,
    )
    .expect("readable stderr");
    assert!(
        stderr.contains("3 jobs submitted"),
        "shutdown report accounts for all accepted jobs: {stderr}"
    );
    assert!(
        stderr.contains("cancelled at shutdown"),
        "shutdown report renders the cancellation count: {stderr}"
    );
}

#[test]
fn stdin_eof_also_drains_cleanly() {
    let mut daemon = spawn_daemon(&["--drain-ms", "30000"]);
    let mut client = Client::connect(&daemon.addr);
    let submitted = client.ask(
        r#"{"op":"submit","workload":"racy_counter","epochs":1,"nprocs":2,"seed_base":3,"seed_count":1}"#,
    );
    assert_eq!(submitted.get("ok").and_then(Value::as_bool), Some(true));

    // Closing stdin (supervisor died / pipe closed) is the other shutdown
    // path; the fast job fits the window, so the drain is clean.
    drop(daemon.child.stdin.take());
    let status = wait_with_deadline(&mut daemon.child, Duration::from_secs(60));
    assert!(status.success(), "EOF drain must exit 0 (got {status:?})");
}

#[test]
fn drain_over_the_socket_ends_the_process() {
    let mut daemon = spawn_daemon(&["--drain-ms", "30000"]);
    let mut client = Client::connect(&daemon.addr);
    let submitted = client.ask(
        r#"{"op":"submit","workload":"racy_counter","epochs":1,"nprocs":2,"seed_base":5,"seed_count":1}"#,
    );
    assert_eq!(submitted.get("ok").and_then(Value::as_bool), Some(true));

    // Stdin stays open: the drain over the wire alone must end the
    // process, after its reply is written.
    let drained = client.ask(r#"{"op":"drain","deadline_ms":30000}"#);
    assert_eq!(drained.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(drained.get("clean").and_then(Value::as_bool), Some(true));
    let status = wait_with_deadline(&mut daemon.child, Duration::from_secs(60));
    assert!(
        status.success(),
        "socket drain must exit 0 (got {status:?})"
    );
    assert!(daemon.child.stdin.is_some(), "stdin was never closed");
}

#[test]
fn bad_flags_exit_nonzero_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_cvm-service"))
        .arg("--frobnicate")
        .output()
        .expect("run cvm-service");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "usage on bad flags: {stderr}");
}
