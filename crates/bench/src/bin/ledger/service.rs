//! The two service workloads: closed-loop clients against the daemon, in
//! process and over the durable TCP front end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use cvm_service::json::{parse, Value};
use cvm_service::{
    run_direct, Daemon, DaemonConfig, DaemonStats, FsyncPolicy, JobId, JobPhase, JobSpec,
    PersistConfig, SubmitError, TcpFrontEnd, Workload,
};

use crate::apps::mix;
use crate::spans::now_ns;

/// Closed-loop clients: one per core of this box, so the daemon's four
/// workers — not the generator — are what queues.
pub const CLIENTS: usize = 2;
const EPOCHS: u64 = 4;
const SEEDS_PER_JOB: u32 = 2;

/// The job shapes of the mix: (workload, nodes).
pub const SHAPES: [(Workload, usize); 4] = [
    (Workload::MixedStripes { epochs: EPOCHS }, 3),
    (Workload::LockedCounter { epochs: EPOCHS }, 2),
    (Workload::DisjointGrid { epochs: EPOCHS }, 4),
    (Workload::RacyCounter { epochs: EPOCHS }, 2),
];

fn spec(shape: usize, seed_base: u64) -> JobSpec {
    let (workload, nodes) = SHAPES[shape];
    JobSpec::new(workload, nodes, seed_base, SEEDS_PER_JOB)
}

/// Distinct race fingerprints `run_direct` finds over a job's seeds.
fn direct_distinct(spec: &JobSpec) -> Result<usize, String> {
    let mut all = std::collections::BTreeSet::new();
    for seed in spec.seeds() {
        let report = run_direct(spec, seed).map_err(|e| e.to_string())?;
        all.extend(report.races.distinct_fingerprints());
    }
    Ok(all.len())
}

/// A client's job order: every shape equally often, shuffled by the seed.
fn rotation(seed: u64, client: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..SHAPES.len() * 3).map(|i| i % SHAPES.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed, (client as u64) << 32 | i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What a status query answers, from either front end.
struct Status {
    phase: JobPhase,
    distinct_races: usize,
}

enum Refused {
    QueueFull,
    Other(String),
}

/// One client's connection to the daemon.
enum Front {
    InProc(Daemon),
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

fn phase_from_name(name: &str) -> Option<JobPhase> {
    [
        JobPhase::Queued,
        JobPhase::Running,
        JobPhase::Done,
        JobPhase::Failed,
        JobPhase::Cancelled,
    ]
    .into_iter()
    .find(|p| p.name() == name)
}

impl Front {
    fn round_trip(
        reader: &mut BufReader<TcpStream>,
        writer: &mut TcpStream,
        request: &Value,
    ) -> Result<Value, String> {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        parse(&line).map_err(|e| e.to_string())
    }

    fn submit(&mut self, spec: &JobSpec) -> Result<JobId, Refused> {
        match self {
            Front::InProc(daemon) => daemon.submit(spec.clone()).map_err(|e| match e {
                SubmitError::QueueFull { .. } => Refused::QueueFull,
                other => Refused::Other(other.to_string()),
            }),
            Front::Tcp { reader, writer } => {
                let request = Value::obj([
                    ("op", Value::Str("submit".into())),
                    ("workload", Value::Str(spec.workload.name().into())),
                    ("epochs", Value::Int(spec.workload.epochs() as i64)),
                    ("nprocs", Value::Int(spec.nprocs as i64)),
                    ("seed_base", Value::Int(spec.seed_base as i64)),
                    ("seed_count", Value::Int(i64::from(spec.seed_count))),
                ]);
                let reply = Self::round_trip(reader, writer, &request).map_err(Refused::Other)?;
                match reply.get("job").and_then(Value::as_u64) {
                    Some(id) => Ok(JobId(id)),
                    None if reply.get("reason").and_then(Value::as_str) == Some("queue_full") => {
                        Err(Refused::QueueFull)
                    }
                    None => Err(Refused::Other(reply.to_string())),
                }
            }
        }
    }

    fn status(&mut self, id: JobId) -> Result<Status, String> {
        match self {
            Front::InProc(daemon) => {
                let snap = daemon.status(id).ok_or("unknown job")?;
                Ok(Status {
                    phase: snap.phase,
                    distinct_races: snap.distinct_races,
                })
            }
            Front::Tcp { reader, writer } => {
                let request = Value::obj([
                    ("op", Value::Str("status".into())),
                    ("job", Value::Int(id.0 as i64)),
                ]);
                let reply = Self::round_trip(reader, writer, &request)?;
                let phase = reply
                    .get("phase")
                    .and_then(Value::as_str)
                    .and_then(phase_from_name)
                    .ok_or_else(|| format!("bad status reply: {reply}"))?;
                let distinct_races = reply
                    .get("distinct_races")
                    .and_then(Value::as_u64)
                    .ok_or("status reply without distinct_races")?
                    as usize;
                Ok(Status {
                    phase,
                    distinct_races,
                })
            }
        }
    }
}

/// Timestamps of one job as its own client saw them.
#[derive(Clone, Copy, Debug)]
pub struct JobSample {
    /// Index into [`SHAPES`].
    pub shape: usize,
    /// First submit attempt.
    pub start_ns: u64,
    /// Terminal phase observed.
    pub end_ns: u64,
    /// Submit accepted / first `Running` seen; taken only in detail mode.
    pub accepted_ns: u64,
    pub running_ns: u64,
}

impl JobSample {
    /// The job's shape and its latency in ms.
    pub fn latency_ms(&self) -> (usize, f64) {
        (self.shape, (self.end_ns - self.start_ns) as f64 / 1e6)
    }
}

/// What one client measured.
#[derive(Default)]
pub struct ClientLog {
    pub jobs: Vec<JobSample>,
    /// Submit attempts (a refusal and its retry are two).
    pub attempted: u64,
    /// Submissions and polls refused, errored, or answered wrong.
    pub failed: u64,
    pub queue_full: u64,
    pub first_failure: Option<String>,
    /// Per-call durations, detail mode only.
    pub submit_us: Vec<f64>,
    pub status_us: Vec<f64>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// When a client stops taking new jobs.
#[derive(Clone, Copy)]
pub enum Until {
    DeadlineNs(u64),
    Jobs(usize),
}

/// Runs one closed-loop client: submit a job, poll its status every `poll`
/// until this client sees it terminal, check it, submit the next.  Latency
/// is taken at that observation, per job — never by awaiting jobs in
/// submission order.
fn client_loop(
    front: &mut Front,
    seed: u64,
    client: usize,
    expected: &[usize; SHAPES.len()],
    poll: Duration,
    until: Until,
    detail: bool,
) -> ClientLog {
    let order = rotation(seed, client);
    let mut log = ClientLog::default();
    for i in 0.. {
        match until {
            Until::DeadlineNs(t) if now_ns() >= t => break,
            Until::Jobs(n) if i >= n => break,
            _ => {}
        }
        let shape = order[i % order.len()];
        let spec = spec(shape, mix(seed, (client as u64) << 40 | i as u64) >> 16);
        let start_ns = now_ns();
        let id = loop {
            let t = now_ns();
            log.attempted += 1;
            let outcome = front.submit(&spec);
            if detail {
                log.submit_us.push((now_ns() - t) as f64 / 1e3);
            }
            match outcome {
                Ok(id) => break Some(id),
                Err(Refused::QueueFull) => {
                    // A refusal is a failed op, not a wait that vanishes.
                    log.queue_full += 1;
                    log.fail("queue full".into());
                    std::thread::sleep(poll);
                }
                Err(Refused::Other(why)) => {
                    log.fail(why);
                    break None;
                }
            }
        };
        let Some(id) = id else { continue };
        let accepted_ns = if detail { now_ns() } else { 0 };
        let mut running_ns = 0;
        loop {
            let t = now_ns();
            let status = front.status(id);
            if detail {
                log.status_us.push((now_ns() - t) as f64 / 1e3);
            }
            match status {
                Ok(s) if s.phase.is_terminal() => {
                    let end_ns = now_ns();
                    if s.phase != JobPhase::Done {
                        log.fail(format!("{id} ended {}", s.phase.name()));
                    } else if s.distinct_races != expected[shape] {
                        log.fail(format!(
                            "{id}: {} distinct races, run_direct finds {}",
                            s.distinct_races, expected[shape]
                        ));
                    }
                    log.jobs.push(JobSample {
                        shape,
                        start_ns,
                        end_ns,
                        accepted_ns,
                        running_ns: if running_ns == 0 { end_ns } else { running_ns },
                    });
                    break;
                }
                Ok(s) => {
                    if detail && running_ns == 0 && s.phase == JobPhase::Running {
                        running_ns = now_ns();
                    }
                    std::thread::sleep(poll);
                }
                Err(why) => {
                    log.fail(why);
                    break;
                }
            }
        }
    }
    log
}

/// Which service workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    InProc,
    TcpDurable,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "service_inproc" => Some(Kind::InProc),
            "service_tcp_durable" => Some(Kind::TcpDurable),
            _ => None,
        }
    }

    fn poll(self) -> Duration {
        match self {
            Kind::InProc => Duration::from_micros(200),
            Kind::TcpDurable => Duration::from_micros(500),
        }
    }
}

/// A started daemon with its clients connected and warmed up.
pub struct Service {
    kind: Kind,
    seed: u64,
    daemon: Daemon,
    tcp: Option<TcpFrontEnd>,
    fronts: Vec<Front>,
    data_dir: Option<PathBuf>,
    expected: [usize; SHAPES.len()],
}

/// Scratch space inside the checkout; the benchmark writes nowhere else.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".ledger")
}

impl Service {
    /// Starts the daemon (and TCP front end and journal), connects
    /// `clients` clients, computes each shape's expected answer with
    /// `run_direct`, and runs three warm-up jobs.
    pub fn start(kind: Kind, seed: u64, clients: usize) -> Result<Service, String> {
        static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mut expected = [0; SHAPES.len()];
        for (shape, want) in expected.iter_mut().enumerate() {
            *want = direct_distinct(&spec(shape, seed))?;
        }
        let data_dir = (kind == Kind::TcpDurable).then(|| {
            scratch_dir().join(format!(
                "journal-{}-{}",
                std::process::id(),
                NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ))
        });
        let persist = match &data_dir {
            Some(dir) => {
                std::fs::remove_dir_all(dir).ok();
                PersistConfig {
                    fsync: FsyncPolicy::Always,
                    ..PersistConfig::at(dir)
                }
            }
            None => PersistConfig::default(),
        };
        let daemon = Daemon::open(DaemonConfig {
            persist,
            ..DaemonConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut tcp = None;
        let mut fronts = Vec::new();
        if kind == Kind::TcpDurable {
            let front_end =
                TcpFrontEnd::serve(daemon.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
            for _ in 0..clients {
                let stream = TcpStream::connect(front_end.addr()).map_err(|e| e.to_string())?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                fronts.push(Front::Tcp {
                    reader,
                    writer: stream,
                });
            }
            tcp = Some(front_end);
        } else {
            fronts.extend((0..clients).map(|_| Front::InProc(daemon.clone())));
        }
        let mut service = Service {
            kind,
            seed,
            daemon,
            tcp,
            fronts,
            data_dir,
            expected,
        };
        let warm = service.run(Until::Jobs(3), false).remove(0);
        if let Some(why) = warm.first_failure {
            return Err(format!("warm-up job failed: {why}"));
        }
        Ok(service)
    }

    /// Runs every client's closed loop to `until`, one thread per client.
    pub fn run(&mut self, until: Until, detail: bool) -> Vec<ClientLog> {
        let (seed, expected, poll) = (self.seed, self.expected, self.kind.poll());
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .fronts
                .iter_mut()
                .enumerate()
                .map(|(c, front)| {
                    s.spawn(move || client_loop(front, seed, c, &expected, poll, until, detail))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    /// Round-trip times of `n` pings on the first client's socket, in µs.
    pub fn ping_rtts(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let Some(Front::Tcp { reader, writer }) = self.fronts.first_mut() else {
            return Err("ping needs a TCP client".into());
        };
        let ping = Value::obj([("op", Value::Str("ping".into()))]);
        (0..n)
            .map(|_| {
                let t = now_ns();
                let reply = Front::round_trip(reader, writer, &ping)?;
                if reply.get("pong").and_then(Value::as_bool) != Some(true) {
                    return Err(format!("bad ping reply: {reply}"));
                }
                Ok((now_ns() - t) as f64 / 1e3)
            })
            .collect()
    }

    pub fn stats(&self) -> DaemonStats {
        self.daemon.stats()
    }

    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Drains the daemon, closes sockets and the listener, removes the
    /// journal directory.
    pub fn stop(mut self) {
        self.fronts.clear();
        if let Some(tcp) = &mut self.tcp {
            tcp.stop();
        }
        self.daemon.drain(Duration::from_secs(5));
        if let Some(dir) = &self.data_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// One job's seeds run directly, back to back: the service's baseline.
/// Returns the job's shape with its wall in ms, and the last seed's report.
pub fn direct_job(seed: u64, i: usize) -> Result<((usize, f64), cvm_dsm::RunReport), String> {
    let order = rotation(seed, 0);
    let shape = order[i % order.len()];
    let spec = spec(shape, mix(seed, i as u64) >> 16);
    let start = now_ns();
    let mut last = None;
    for s in spec.seeds() {
        last = Some(run_direct(&spec, s).map_err(|e| e.to_string())?);
    }
    let wall_ms = (now_ns() - start) as f64 / 1e6;
    Ok(((shape, wall_ms), last.expect("a job has at least one seed")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_a_seeded_permutation_of_equal_shares() {
        let a = rotation(7, 0);
        assert_eq!(a, rotation(7, 0), "same seed, same order");
        assert_ne!(a, rotation(8, 0), "another seed reorders");
        for shape in 0..SHAPES.len() {
            assert_eq!(a.iter().filter(|&&s| s == shape).count(), 3);
        }
    }

    #[test]
    fn phase_names_round_trip() {
        assert_eq!(phase_from_name("running"), Some(JobPhase::Running));
        assert_eq!(phase_from_name("done"), Some(JobPhase::Done));
        assert_eq!(phase_from_name("nope"), None);
    }
}
