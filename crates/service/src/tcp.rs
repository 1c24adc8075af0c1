//! Line-delimited JSON TCP front end.
//!
//! One request per line, one response per line — no HTTP framework, no
//! framing beyond `\n`.  The accept loop runs nonblocking so the listener
//! observes its stop flag promptly; each connection gets its own thread
//! with a read timeout for the same reason.  A malformed request closes
//! nothing: the error is reported on the wire (`{"ok":false,...}`) and
//! the connection keeps serving.
//!
//! Hostile clients are bounded too ([`TcpTuning`]): a request line over
//! the cap gets a named error and a closed connection instead of
//! unbounded buffering, and a connection idle past its deadline is
//! reclaimed rather than pinning its accept slot forever.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cvm_dsm::{Protocol, RecoveryPolicy};

use crate::daemon::{Daemon, SubmitError};
use crate::job::{JobId, JobSnapshot, JobSpec};
use crate::json::{parse, Value};
use crate::persist::PersistStatsSnapshot;
use crate::pool::PoolStatsSnapshot;
use crate::workload::{FaultSpec, KillSpec, PartitionSpec, Workload};

/// Per-connection protection bounds.
#[derive(Clone, Copy, Debug)]
pub struct TcpTuning {
    /// Longest accepted request line, newline included.  A client pushing
    /// more without a newline gets a `line_too_long` error and a closed
    /// connection — the buffer never grows past the cap.
    pub max_line_bytes: usize,
    /// Idle deadline: a connection that sends nothing for this long gets
    /// an `idle_timeout` error and is closed, so half-open sockets cannot
    /// pin their slot forever.
    pub idle_deadline: Duration,
}

impl Default for TcpTuning {
    fn default() -> Self {
        TcpTuning {
            max_line_bytes: 64 * 1024,
            idle_deadline: Duration::from_secs(60),
        }
    }
}

/// A running TCP front end.  Dropping it (or calling
/// [`stop`](TcpFrontEnd::stop)) closes the listener; the daemon behind it
/// is unaffected.
pub struct TcpFrontEnd {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpFrontEnd {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `daemon` over it
    /// with default [`TcpTuning`].
    pub fn serve(daemon: Daemon, addr: &str) -> std::io::Result<TcpFrontEnd> {
        TcpFrontEnd::serve_with(daemon, addr, TcpTuning::default())
    }

    /// [`serve`](TcpFrontEnd::serve) with explicit protection bounds.
    pub fn serve_with(
        daemon: Daemon,
        addr: &str,
        tuning: TcpTuning,
    ) -> std::io::Result<TcpFrontEnd> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("svc-accept".into())
                .spawn(move || accept_loop(&listener, &daemon, &stop, tuning))
                .expect("spawn accept loop")
        };
        Ok(TcpFrontEnd {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and waits for the open connections: each finishes
    /// the request in hand, reply written, and closes at its next read
    /// timeout.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpFrontEnd {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, daemon: &Daemon, stop: &Arc<AtomicBool>, tuning: TcpTuning) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let daemon = daemon.clone();
                let stop = Arc::clone(stop);
                connections.retain(|c| !c.is_finished());
                connections.extend(
                    std::thread::Builder::new()
                        .name("svc-conn".into())
                        .spawn(move || serve_connection(stream, &daemon, &stop, tuning)),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
}

fn serve_connection(stream: TcpStream, daemon: &Daemon, stop: &Arc<AtomicBool>, tuning: TcpTuning) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // A client that stops reading its replies cannot hold `stop` for
    // longer than the idle deadline.
    let _ = stream.set_write_timeout(Some(tuning.idle_deadline));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = stream;
    // Raw buffered reads (not `read_line`) so the accumulation is bounded
    // by the tuning cap, not by how much the client cares to send.
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        match reader.read(&mut chunk) {
            Ok(0) => return, // Peer closed.
            Ok(n) => {
                last_activity = Instant::now();
                buffer.extend_from_slice(&chunk[..n]);
                // Process every complete line in the buffer.
                while let Some(pos) = buffer.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buffer.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line);
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let response = handle_line(daemon, trimmed);
                    if writer
                        .write_all(format!("{response}\n").as_bytes())
                        .is_err()
                    {
                        return;
                    }
                }
                if buffer.len() > tuning.max_line_bytes {
                    // No newline within the cap: reject and hang up
                    // instead of buffering without bound.
                    let response = error_response(
                        "line_too_long",
                        &format!(
                            "request line exceeds {} bytes without a newline",
                            tuning.max_line_bytes
                        ),
                    );
                    let _ = writer.write_all(format!("{response}\n").as_bytes());
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll: re-check the stop flag and the deadline.
                if last_activity.elapsed() > tuning.idle_deadline {
                    let response = error_response(
                        "idle_timeout",
                        &format!("no request within {} ms", tuning.idle_deadline.as_millis()),
                    );
                    let _ = writer.write_all(format!("{response}\n").as_bytes());
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one request line, producing one response value.  Public so the
/// soak suite can exercise the protocol without sockets.
pub fn handle_line(daemon: &Daemon, line: &str) -> Value {
    let request = match parse(line) {
        Ok(v) => v,
        Err(e) => return error_response("bad_json", &e.to_string()),
    };
    match dispatch(daemon, &request) {
        Ok(v) => v,
        Err((reason, detail)) => error_response(reason, &detail),
    }
}

fn error_response(reason: &str, detail: &str) -> Value {
    Value::obj([
        ("ok", Value::Bool(false)),
        ("reason", Value::Str(reason.into())),
        ("error", Value::Str(detail.into())),
    ])
}

type WireError = (&'static str, String);

fn dispatch(daemon: &Daemon, request: &Value) -> Result<Value, WireError> {
    let op = request
        .get("op")
        .and_then(Value::as_str)
        .ok_or(("bad_request", "missing string field 'op'".to_string()))?;
    match op {
        "ping" => Ok(Value::obj([
            ("ok", Value::Bool(true)),
            ("pong", Value::Bool(true)),
        ])),
        "submit" => submit(daemon, request),
        "status" => {
            let id = job_id(request)?;
            let snap = daemon.status(id).ok_or_else(|| missing(daemon, id))?;
            Ok(snapshot_value(&snap))
        }
        "jobs" => Ok(Value::obj([
            ("ok", Value::Bool(true)),
            (
                "jobs",
                Value::Arr(daemon.jobs().iter().map(snapshot_value).collect()),
            ),
        ])),
        "cancel" => {
            let id = job_id(request)?;
            if !daemon.cancel(id) {
                return Err(missing(daemon, id));
            }
            Ok(Value::obj([
                ("ok", Value::Bool(true)),
                ("cancelled", Value::Bool(true)),
            ]))
        }
        "races" => {
            let id = job_id(request)?;
            let races = daemon
                .races(id)
                .ok_or(("unknown_job", format!("{id} has no retained results")))?;
            let items = races
                .races
                .iter()
                .map(|r| {
                    Value::obj([
                        // Full 64-bit width survives as hex text.
                        ("fingerprint", Value::Str(format!("{:016x}", r.fingerprint))),
                        ("hits", Value::Int(r.hits as i64)),
                        ("first_seed", Value::Int(r.first_seed as i64)),
                        ("rendered", Value::Str(r.rendered.clone())),
                    ])
                })
                .collect();
            Ok(Value::obj([
                ("ok", Value::Bool(true)),
                ("races", Value::Arr(items)),
                ("reports_merged", Value::Int(races.reports_merged as i64)),
            ]))
        }
        "stats" => {
            let stats = daemon.stats();
            let fields = [
                ("ok", Value::Bool(true)),
                ("jobs_submitted", Value::Int(stats.jobs_submitted as i64)),
                ("jobs_rejected", Value::Int(stats.jobs_rejected as i64)),
                ("jobs_active", Value::Int(stats.jobs_active as i64)),
                ("draining", Value::Bool(stats.draining)),
                ("store_bytes", Value::Int(stats.store.bytes_live as i64)),
                ("jobs_evicted", Value::Int(stats.store.jobs_evicted as i64)),
                (
                    "distinct_races",
                    Value::Int(stats.store.distinct_races as i64),
                ),
            ];
            Ok(Value::obj(
                fields
                    .into_iter()
                    .chain(counter_fields(
                        PoolStatsSnapshot::NAMES,
                        stats.pool.values(),
                    ))
                    .chain(counter_fields(
                        PersistStatsSnapshot::NAMES,
                        stats.persist.values(),
                    )),
            ))
        }
        "drain" => {
            let deadline_ms = request
                .get("deadline_ms")
                .and_then(Value::as_u64)
                .unwrap_or(5_000);
            let report = daemon.drain(Duration::from_millis(deadline_ms));
            let fields = [
                ("ok", Value::Bool(true)),
                ("clean", Value::Bool(report.clean)),
                ("jobs_cancelled", Value::Int(report.jobs_cancelled as i64)),
            ];
            Ok(Value::obj(fields.into_iter().chain(counter_fields(
                PersistStatsSnapshot::NAMES,
                report.persist.values(),
            ))))
        }
        other => Err(("bad_request", format!("unknown op '{other}'"))),
    }
}

/// A counter set as reply fields, keyed by its declared names.
fn counter_fields<const N: usize>(
    names: [&'static str; N],
    values: [u64; N],
) -> impl Iterator<Item = (&'static str, Value)> {
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| (name, Value::Int(value as i64)))
}

fn job_id(request: &Value) -> Result<JobId, WireError> {
    request
        .get("job")
        .and_then(Value::as_u64)
        .map(JobId)
        .ok_or(("bad_request", "missing integer field 'job'".to_string()))
}

fn submit(daemon: &Daemon, request: &Value) -> Result<Value, WireError> {
    let spec = spec_from_request(request)?;
    match daemon.submit(spec) {
        Ok(id) => Ok(Value::obj([
            ("ok", Value::Bool(true)),
            ("job", Value::Int(id.0 as i64)),
        ])),
        Err(SubmitError::Invalid(why)) => Err(("invalid_spec", why)),
        Err(e @ SubmitError::QueueFull { .. }) => Err(("queue_full", e.to_string())),
        Err(SubmitError::Draining) => Err(("draining", "daemon is draining".into())),
    }
}

fn spec_from_request(request: &Value) -> Result<JobSpec, WireError> {
    let get_u64 = |key: &str, default: u64| -> Result<u64, WireError> {
        match request.get(key) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or((
                "bad_request",
                format!("field '{key}' must be a non-negative integer"),
            )),
        }
    };
    let name = request
        .get("workload")
        .and_then(Value::as_str)
        .ok_or(("bad_request", "missing string field 'workload'".to_string()))?;
    let epochs = get_u64("epochs", 2)?;
    let dwell_ms = get_u64("dwell_ms", 0)?;
    let workload = Workload::from_name(name, epochs, dwell_ms)
        .ok_or(("bad_request", format!("unknown workload '{name}'")))?;

    let nprocs = get_u64("nprocs", 2)? as usize;
    let seed_base = get_u64("seed_base", 1)?;
    let seed_count = get_u64("seed_count", 1)? as u32;
    let mut spec = JobSpec::new(workload, nprocs, seed_base, seed_count);

    if let Some(v) = request.get("protocol") {
        spec.protocol = match v.as_str() {
            Some("single_writer") => Protocol::SingleWriter,
            Some("multi_writer") => Protocol::MultiWriter,
            _ => {
                return Err((
                    "bad_request",
                    "protocol must be 'single_writer' or 'multi_writer'".into(),
                ))
            }
        };
    }
    if let Some(v) = request.get("pipelined") {
        spec.pipelined = v.as_bool().ok_or((
            "bad_request",
            "field 'pipelined' must be a bool".to_string(),
        ))?;
    }
    if let Some(v) = request.get("recover_attempts") {
        let attempts = v.as_u64().ok_or((
            "bad_request",
            "field 'recover_attempts' must be a non-negative integer".to_string(),
        ))?;
        spec.recovery = if attempts == 0 {
            RecoveryPolicy::Abort
        } else {
            RecoveryPolicy::Recover {
                max_attempts: attempts as u32,
            }
        };
    }

    let mut fault = FaultSpec::default();
    if let Some(v) = request.get("drop_rate") {
        fault.drop_rate = v.as_f64().ok_or((
            "bad_request",
            "field 'drop_rate' must be a number".to_string(),
        ))?;
    }
    if let Some(v) = request.get("corrupt_rate") {
        fault.corrupt_rate = v.as_f64().ok_or((
            "bad_request",
            "field 'corrupt_rate' must be a number".to_string(),
        ))?;
    }
    if let Some(v) = request.get("kill_node") {
        let node = v.as_u64().ok_or((
            "bad_request",
            "field 'kill_node' must be a non-negative integer".to_string(),
        ))?;
        fault.kill = Some(KillSpec {
            node: node as u16,
            at_event: get_u64("kill_at_event", 40)?,
        });
    }
    if let Some(v) = request.get("partition_node") {
        let node = v.as_u64().ok_or((
            "bad_request",
            "field 'partition_node' must be a non-negative integer".to_string(),
        ))?;
        let heal_at = match request.get("partition_heal_at") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or((
                "bad_request",
                "field 'partition_heal_at' must be a non-negative integer".to_string(),
            ))?),
        };
        fault.partition = Some(PartitionSpec {
            node: node as u16,
            at_datagram: get_u64("partition_at", 40)?,
            heal_at,
        });
    }
    spec.fault = fault;

    if let Some(v) = request.get("run_deadline_ms") {
        let ms = v.as_u64().ok_or((
            "bad_request",
            "field 'run_deadline_ms' must be a non-negative integer".to_string(),
        ))?;
        spec.run_deadline = Duration::from_millis(ms);
    }
    spec.retry_budget = get_u64("retry_budget", u64::from(spec.retry_budget))? as u32;
    spec.flaky_first = get_u64("flaky_first", 0)? as u32;
    if let Some(v) = request.get("stage_panic_epoch") {
        spec.stage_panic_epoch = Some(v.as_u64().ok_or((
            "bad_request",
            "field 'stage_panic_epoch' must be a non-negative integer".to_string(),
        ))?);
    }
    Ok(spec)
}

/// Why the daemon no longer answers for `id`: it finished and its results
/// aged out, or it was never assigned.
fn missing(daemon: &Daemon, id: JobId) -> WireError {
    if daemon.assigned(id) {
        (
            "evicted",
            format!("{id} finished and its results were evicted"),
        )
    } else {
        ("unknown_job", format!("{id} is not known"))
    }
}

fn snapshot_value(snap: &JobSnapshot) -> Value {
    Value::obj([
        ("ok", Value::Bool(true)),
        ("job", Value::Int(snap.id.0 as i64)),
        ("phase", Value::Str(snap.phase.name().into())),
        ("seeds_total", Value::Int(i64::from(snap.seeds_total))),
        ("seeds_done", Value::Int(i64::from(snap.seeds_done))),
        ("seeds_failed", Value::Int(i64::from(snap.seeds_failed))),
        (
            "seeds_cancelled",
            Value::Int(i64::from(snap.seeds_cancelled)),
        ),
        ("retries", Value::Int(snap.retries as i64)),
        (
            "deadline_overruns",
            Value::Int(snap.deadline_overruns as i64),
        ),
        (
            "first_error",
            snap.first_error.clone().map_or(Value::Null, Value::Str),
        ),
        ("distinct_races", Value::Int(snap.distinct_races as i64)),
        (
            "partitions_healed",
            Value::Int(snap.partitions_healed as i64),
        ),
        (
            "stale_msgs_fenced",
            Value::Int(snap.stale_msgs_fenced as i64),
        ),
        ("quorum_losses", Value::Int(snap.quorum_losses as i64)),
        ("rejoin_restores", Value::Int(snap.rejoin_restores as i64)),
        ("recovered", Value::Bool(snap.recovered)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use std::io::{BufRead, BufReader};

    #[test]
    fn protocol_handles_ping_and_rejects_garbage() {
        let daemon = Daemon::start(DaemonConfig::default());
        let pong = handle_line(&daemon, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));

        let bad = handle_line(&daemon, "not json at all");
        assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(bad.get("reason").and_then(Value::as_str), Some("bad_json"));

        let bad = handle_line(&daemon, r#"{"op":"frobnicate"}"#);
        assert_eq!(
            bad.get("reason").and_then(Value::as_str),
            Some("bad_request")
        );

        let bad = handle_line(&daemon, r#"{"op":"status","job":12345}"#);
        assert_eq!(
            bad.get("reason").and_then(Value::as_str),
            Some("unknown_job")
        );
    }

    #[test]
    fn status_tells_an_evicted_job_from_an_unknown_one() {
        // A budget below one record: every job is evicted as it seals.
        let daemon = Daemon::start(DaemonConfig {
            store_budget_bytes: 1,
            ..DaemonConfig::default()
        });
        let submitted = handle_line(
            &daemon,
            r#"{"op":"submit","workload":"disjoint_grid","epochs":1,"nprocs":2,"seed_count":1}"#,
        );
        let job = submitted.get("job").and_then(Value::as_u64).unwrap();
        assert!(daemon.drain(Duration::from_secs(60)).clean);
        assert_eq!(daemon.stats().store.jobs_evicted, 1);
        let reason = |line: String| {
            let reply = handle_line(&daemon, &line);
            assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
            reply
                .get("reason")
                .and_then(Value::as_str)
                .map(String::from)
        };
        for op in ["status", "cancel"] {
            let evicted = reason(format!(r#"{{"op":"{op}","job":{job}}}"#));
            assert_eq!(evicted.as_deref(), Some("evicted"), "{op} of {job}");
            let never = reason(format!(r#"{{"op":"{op}","job":{}}}"#, job + 1));
            assert_eq!(never.as_deref(), Some("unknown_job"), "{op} of {}", job + 1);
        }
        // In process, both are simply unknown.
        assert!(daemon.status(JobId(job)).is_none());
        assert!(daemon.status(JobId(job + 1)).is_none());
    }

    #[test]
    fn submit_parses_the_full_spec_surface() {
        let daemon = Daemon::start(DaemonConfig::default());
        let response = handle_line(
            &daemon,
            r#"{"op":"submit","workload":"mixed_stripes","epochs":1,"nprocs":3,
                "seed_base":5,"seed_count":1,"protocol":"multi_writer","pipelined":true,
                "recover_attempts":2,"drop_rate":0.05,"retry_budget":4,
                "run_deadline_ms":20000}"#
                .replace('\n', " ")
                .as_str(),
        );
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "submit failed: {response}"
        );
        let id = JobId(response.get("job").and_then(Value::as_u64).unwrap());
        let spec = {
            // Drain to make sure the job lands before inspecting.
            daemon.drain(Duration::from_secs(60));
            daemon.status(id).unwrap()
        };
        assert!(spec.phase.is_terminal());
    }

    #[test]
    fn invalid_specs_surface_their_reason() {
        let daemon = Daemon::start(DaemonConfig::default());
        let response = handle_line(
            &daemon,
            r#"{"op":"submit","workload":"racy_counter","nprocs":0}"#,
        );
        assert_eq!(
            response.get("reason").and_then(Value::as_str),
            Some("invalid_spec")
        );
        let response = handle_line(&daemon, r#"{"op":"submit","workload":"nope"}"#);
        assert_eq!(
            response.get("reason").and_then(Value::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn tcp_roundtrip_over_a_real_socket() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        });
        let mut front = TcpFrontEnd::serve(daemon.clone(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(front.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let mut ask = |line: &str| -> Value {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            parse(response.trim()).unwrap()
        };

        let submitted = ask(
            r#"{"op":"submit","workload":"racy_counter","epochs":2,"nprocs":2,"seed_base":1,"seed_count":2}"#,
        );
        assert_eq!(submitted.get("ok").and_then(Value::as_bool), Some(true));
        let job = submitted.get("job").and_then(Value::as_u64).unwrap();

        // Poll status over the wire until terminal.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let phase = loop {
            let status = ask(&format!(r#"{{"op":"status","job":{job}}}"#));
            let phase = status
                .get("phase")
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            if phase != "queued" && phase != "running" {
                break phase;
            }
            assert!(std::time::Instant::now() < deadline, "job stuck");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(phase, "done");

        let races = ask(&format!(r#"{{"op":"races","job":{job}}}"#));
        let items = races.get("races").and_then(Value::as_arr).unwrap();
        assert!(!items.is_empty(), "racy_counter must surface races");
        for item in items {
            let print = item.get("fingerprint").and_then(Value::as_str).unwrap();
            assert_eq!(print.len(), 16, "fingerprint travels as 16 hex chars");
            assert!(u64::from_str_radix(print, 16).is_ok());
        }

        front.stop();
        // The daemon outlives its front end.
        assert!(daemon.status(JobId(job)).is_some());
    }

    #[test]
    fn oversized_line_gets_named_error_and_close() {
        let daemon = Daemon::start(DaemonConfig::default());
        let mut front = TcpFrontEnd::serve_with(
            daemon,
            "127.0.0.1:0",
            TcpTuning {
                max_line_bytes: 256,
                ..TcpTuning::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Push well past the cap without ever sending a newline.
        stream.write_all(&vec![b'x'; 4096]).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("line_too_long"),
            "named error expected, got: {response}"
        );
        // read_to_string returning means the server closed the socket.
        front.stop();
    }

    #[test]
    fn idle_connection_is_reclaimed() {
        let daemon = Daemon::start(DaemonConfig::default());
        let mut front = TcpFrontEnd::serve_with(
            daemon,
            "127.0.0.1:0",
            TcpTuning {
                idle_deadline: Duration::from_millis(200),
                ..TcpTuning::default()
            },
        )
        .unwrap();
        // A half-open client: connects, says nothing.
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("idle_timeout"),
            "named error expected, got: {response}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "idle reclaim must not take the full read timeout"
        );
        front.stop();
    }

    #[test]
    fn stats_and_drain_replies_carry_every_counter() {
        let dir = cvm_testkit::scratch_dir("tcp-replies");
        let daemon = Daemon::start(DaemonConfig {
            persist: crate::PersistConfig::at(&dir),
            ..DaemonConfig::default()
        });
        daemon
            .submit(JobSpec::new(Workload::RacyCounter { epochs: 1 }, 2, 1, 2))
            .expect("admitted");
        // Drain first: with the pool joined and the journal compacted, no
        // counter moves between the in-process read and the replies.
        let drained = handle_line(&daemon, r#"{"op":"drain","deadline_ms":30000}"#);
        let stats = daemon.stats();
        assert_eq!(stats.pool.seeds_finished, 2);
        let reply = handle_line(&daemon, r#"{"op":"stats"}"#);
        let carries = |reply: &Value, names: &[&str], values: &[u64]| {
            for (name, value) in names.iter().zip(values) {
                assert_eq!(
                    reply.get(name).and_then(Value::as_u64),
                    Some(*value),
                    "{name} in {reply}"
                );
            }
        };
        carries(
            &drained,
            &PersistStatsSnapshot::NAMES,
            &stats.persist.values(),
        );
        carries(&reply, &PoolStatsSnapshot::NAMES, &stats.pool.values());
        carries(
            &reply,
            &PersistStatsSnapshot::NAMES,
            &stats.persist.values(),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_durability_is_counted_and_reported() {
        let dir = cvm_testkit::scratch_dir("tcp-degraded");
        let daemon = Daemon::start(DaemonConfig {
            persist: crate::PersistConfig {
                compact_every: 2,
                ..crate::PersistConfig::at(&dir)
            },
            ..DaemonConfig::default()
        });
        // The journal keeps appending to its unlinked file; the compaction
        // due at the second record cannot create its tmp file.
        std::fs::remove_dir_all(&dir).expect("remove the data directory");
        let id = daemon
            .submit(JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 1, 1))
            .expect("admitted");
        let started = Instant::now();
        while !daemon.status(id).expect("job known").phase.is_terminal() {
            assert!(started.elapsed() < Duration::from_secs(30), "job stuck");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.status(id).unwrap().phase, crate::JobPhase::Done);
        assert!(daemon.stats().persist.io_errors >= 1);
        let reply = handle_line(&daemon, r#"{"op":"stats"}"#);
        assert!(
            reply.get("io_errors").and_then(Value::as_u64) >= Some(1),
            "{reply}"
        );
    }
}
