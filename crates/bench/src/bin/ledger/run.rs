//! The two passes over a workload: untraced (end-to-end metrics) and
//! traced (per-layer metrics).

use std::collections::BTreeMap;

use cvm_dsm::RunReport;

use crate::apps::{self, AppWorkload, Ran};
use crate::layers::{self, Rows};
use crate::report::{sampled, Metric, Pass};
use crate::service::{self, ClientLog, JobSample, Kind, Service, Until, CLIENTS};
use crate::spans::{now_ns, ProcLog, Recorder};
use crate::spec::{self, WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, supported_percentile};

#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Cut every workload and micro-program to a fraction of its size.
    pub smoke: bool,
}

// --- process meters ----------------------------------------------------------

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks are 1/100 s on Linux).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name may hold spaces; fields are counted after it.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let ticks = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<f64>().ok())
    };
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err("no utime/stime in /proc/self/stat".into()),
    }
}

/// Resident-set high-water mark in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

// --- set-up ------------------------------------------------------------------

/// Runs `setup` once, timing it in seconds.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = now_ns();
    let built = setup()?;
    Ok((built, (now_ns() - t) as f64 / 1e9))
}

/// Set-up is repeated so its time is a median: at least three times, and
/// on cheap set-ups until a second has gone into it.  The repeats come
/// *after* the measured phase, so that phase runs in the process as one
/// set-up left it, not after a dozen daemons were started and drained.
fn setup_times<T>(
    smoke: bool,
    first_s: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<Vec<f64>, String> {
    let mut times = vec![first_s];
    while !smoke && (times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 15)) {
        let (built, s) = timed(&mut setup)?;
        times.push(s);
        discard(built);
    }
    Ok(times)
}

/// Builds an app workload's inputs and references and runs one warm-up op
/// and baseline.
fn setup_app(name: &str, opts: Opts) -> Result<AppWorkload, String> {
    let w = apps::build(name, opts.seed, opts.smoke).ok_or("not an app workload")?;
    (w.on)(0, None)
        .result
        .map_err(|e| format!("warm-up op: {e}"))?;
    (w.off)(0)
        .result
        .map_err(|e| format!("warm-up baseline: {e}"))?;
    Ok(w)
}

// --- untraced pass -----------------------------------------------------------

/// Ops attempted and failed, with the first failure's reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Counts one op; hands back its report when it succeeded.
    fn take(&mut self, ran: Ran) -> Option<RunReport> {
        self.attempted += 1;
        ran.result.map_err(|why| self.fail(why)).ok()
    }

    fn add_clients(&mut self, logs: &[ClientLog]) {
        for log in logs {
            self.attempted += log.attempted;
            self.failed += log.failed;
            if self.first_failure.is_none() {
                self.first_failure.clone_from(&log.first_failure);
            }
        }
    }
}

/// Op walls in ms, each tagged with the shape of its job (0 off the service
/// workloads).
type ShapedMs = Vec<(usize, f64)>;

fn ms_only(xs: &[(usize, f64)]) -> Vec<f64> {
    xs.iter().map(|&(_, ms)| ms).collect()
}

/// Typical wall over a mix of shapes: the mean of the per-shape medians (a
/// plain median when there is one shape).  A median over the pooled mix
/// would hop between the shapes' clusters from run to run.
fn mix_median(xs: &[(usize, f64)]) -> f64 {
    let medians: Vec<f64> = (0..service::SHAPES.len())
        .map(|shape| {
            xs.iter()
                .filter(|(s, _)| *s == shape)
                .map(|&(_, ms)| ms)
                .collect::<Vec<_>>()
        })
        .filter(|of_shape| !of_shape.is_empty())
        .map(|of_shape| median(&of_shape))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

fn latencies(logs: &[ClientLog]) -> ShapedMs {
    logs.iter()
        .flat_map(|l| l.jobs.iter().map(JobSample::latency_ms))
        .collect()
}

/// What an untraced pass measured.
struct Measured {
    op_ms: ShapedMs,
    baseline_ms: ShapedMs,
    /// Ops completed in the measured phase (baselines too, where they
    /// alternate with ops).
    ops: usize,
    elapsed_s: f64,
    cpu_s: f64,
    setup_s: Vec<f64>,
}

/// The seven end-to-end metrics, in the table's order.
fn end_to_end(w: &WorkloadSpec, m: &Measured) -> Result<Vec<Metric>, String> {
    let op_ms = ms_only(&m.op_ms);
    let tail = supported_percentile(op_ms.len(), w.tail_percentile);
    if tail < w.tail_percentile {
        eprintln!(
            "{}: {} samples support only p{tail}, not p{}",
            w.name,
            op_ms.len(),
            w.tail_percentile
        );
    }
    let op_wall_ms = mix_median(&m.op_ms);
    let values = [
        ("op_wall_ms", op_wall_ms, op_ms.len()),
        ("op_tail_ms", percentile(&op_ms, tail), op_ms.len()),
        (
            "overhead_ratio",
            op_wall_ms / mix_median(&m.baseline_ms),
            m.baseline_ms.len(),
        ),
        ("ops_per_s", m.ops as f64 / m.elapsed_s, m.ops),
        ("cpu_ms_per_op", m.cpu_s * 1e3 / m.ops as f64, m.ops),
        ("peak_rss_mb", peak_rss_mb()?, 1),
        ("setup_s", median(&m.setup_s), m.setup_s.len()),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (name, value, n))| {
            assert_eq!(spec.name, name, "values follow the table's order");
            Metric {
                name,
                unit: spec.unit,
                value,
                n,
                p95: None,
            }
        })
        .collect())
}

pub fn untraced(w: &'static WorkloadSpec, opts: Opts) -> Result<Pass, String> {
    let mut tally = Tally::default();
    let measured = match Kind::from_name(w.name) {
        None => {
            let (app, first_s) = timed(|| setup_app(w.name, opts))?;
            let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
            let (t0, cpu0) = (now_ns(), cpu_seconds()?);
            // Op and baseline alternate, so drift lands on both alike.
            for i in 1.. {
                let on = (app.on)(i, None);
                let ms = on.wall_ms();
                if tally.take(on).is_some() {
                    on_ms.push((0, ms));
                }
                let off = (app.off)(i);
                let ms = off.wall_ms();
                if tally.take(off).is_some() {
                    off_ms.push((0, ms));
                }
                if (now_ns() - t0) as f64 / 1e9 >= opts.seconds {
                    break;
                }
            }
            let elapsed_s = (now_ns() - t0) as f64 / 1e9;
            let cpu_s = cpu_seconds()? - cpu0;
            drop(app);
            Measured {
                ops: on_ms.len() + off_ms.len(),
                op_ms: on_ms,
                baseline_ms: off_ms,
                elapsed_s,
                cpu_s,
                setup_s: setup_times(opts.smoke, first_s, || setup_app(w.name, opts), drop)?,
            }
        }
        Some(kind) => {
            let start = || Service::start(kind, opts.seed, CLIENTS);
            let (mut svc, first_s) = timed(start)?;
            let (t0, cpu0) = (now_ns(), cpu_seconds()?);
            // The last 15 % of the run measures the baseline.
            let loop_ns = (opts.seconds * 0.85 * 1e9) as u64;
            let logs = svc.run(Until::DeadlineNs(t0 + loop_ns), false);
            let elapsed_s = (now_ns() - t0) as f64 / 1e9;
            let cpu_s = cpu_seconds()? - cpu0;
            svc.stop();
            tally.add_clients(&logs);
            let op_ms = latencies(&logs);
            Measured {
                ops: op_ms.len(),
                op_ms,
                baseline_ms: direct_jobs(opts, t0 + (opts.seconds * 1e9) as u64, &mut tally).0,
                elapsed_s,
                cpu_s,
                setup_s: setup_times(opts.smoke, first_s, start, Service::stop)?,
            }
        }
    };
    let metrics = end_to_end(w, &measured)?;
    Ok(Pass {
        workload: w.name,
        seed: opts.seed,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
    })
}

/// Runs jobs of the mix directly, single-threaded, until `deadline_ns` and
/// for at least one rotation: wall per job, and each job's last report.
fn direct_jobs(opts: Opts, deadline_ns: u64, tally: &mut Tally) -> (ShapedMs, Vec<RunReport>) {
    let (mut ms, mut reports) = (Vec::new(), Vec::new());
    for i in 0.. {
        if i >= 3 * service::SHAPES.len() && now_ns() >= deadline_ns {
            break;
        }
        tally.attempted += 1;
        match service::direct_job(opts.seed, i) {
            Ok((wall_ms, report)) => {
                ms.push(wall_ms);
                reports.push(report);
            }
            Err(why) => tally.fail(why),
        }
    }
    (ms, reports)
}

// --- traced pass -------------------------------------------------------------

/// Per-`Cluster::run` counts, medians over the reports given.
fn count_rows(on: &[RunReport], off: &[RunReport]) -> Rows {
    let med = |f: &dyn Fn(&RunReport) -> f64| vec![median(&on.iter().map(f).collect::<Vec<_>>())];
    let nodes = |r: &RunReport, f: &dyn Fn(&cvm_dsm::NodeStats) -> u64| -> f64 {
        r.nodes.iter().map(|n| f(&n.stats)).sum::<u64>() as f64
    };
    let virtual_on = med(&|r| r.virtual_cycles() as f64)[0];
    let virtual_off = median(
        &off.iter()
            .map(|r| r.virtual_cycles() as f64)
            .collect::<Vec<_>>(),
    );
    vec![
        (
            "core.pair_comparisons",
            med(&|r| r.det_stats.pair_comparisons as f64),
        ),
        (
            "core.pairs_overlapping",
            med(&|r| r.det_stats.pairs_overlapping as f64),
        ),
        (
            "core.bitmap_comparisons",
            med(&|r| r.det_stats.bitmap_comparisons as f64),
        ),
        (
            "core.races_per_check_entry",
            med(&|r| {
                let entries = r.det_stats.pairs_overlapping.max(1);
                r.det_stats.races_found as f64 / entries as f64
            }),
        ),
        ("net.msgs", med(&|r| r.net.msgs as f64)),
        ("net.bytes", med(&|r| r.net.total_bytes() as f64)),
        (
            "net.reliable.retransmissions",
            med(&|r| {
                r.reliability
                    .as_ref()
                    .map_or(0.0, |s| s.retransmissions as f64)
            }),
        ),
        (
            "net.reliable.corrupt_dropped",
            med(&|r| {
                r.reliability
                    .as_ref()
                    .map_or(0.0, |s| s.corrupt_dropped as f64)
            }),
        ),
        ("dsm.locks_remote", med(&|r| nodes(r, &|s| s.locks_remote))),
        (
            "dsm.faults",
            med(&|r| nodes(r, &|s| s.read_faults + s.write_faults)),
        ),
        ("dsm.intervals", med(&|r| r.total_intervals() as f64)),
        (
            "dsm.retained_bytes_high_water",
            med(&|r| r.resources.retained_bytes_high_water as f64),
        ),
        (
            "dsm.simtime.slowdown",
            vec![if virtual_off > 0.0 {
                virtual_on / virtual_off
            } else {
                0.0
            }],
        ),
    ]
}

/// Share of a run's wall the unit costs above do not explain: one minus
/// (sum over op kinds of the busiest process's count x the op's measured
/// unit cost, CPU-bound kinds scaled by processes per core) over the wall.
/// Computed, not measured: it is what timing from outside cannot see.
fn unattributed_share(report: &RunReport, wall_ms: f64, unit: &BTreeMap<&str, f64>) -> f64 {
    let nodes = report.nodes.len();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let per_core = (nodes as f64 / cores.min(nodes) as f64).max(1.0);
    let suffix = match nodes {
        0..=2 => "n2",
        3..=5 => "n4",
        _ => "n8",
    };
    let u = |name: &str| unit.get(name).copied().unwrap_or(0.0);
    let busiest = |f: &dyn Fn(&cvm_dsm::NodeStats) -> u64| -> f64 {
        report.nodes.iter().map(|n| f(&n.stats)).max().unwrap_or(0) as f64
    };
    let access_ns = busiest(&|s| s.shared_reads) * u("dsm.access.read_ns.on")
        + busiest(&|s| s.shared_writes) * u("dsm.access.write_ns.on")
        + busiest(&|s| s.locks_local) * u("dsm.lock.local_acquire_ns");
    let waits_us = busiest(&|s| s.read_faults) * u("dsm.page.read_fault_us.sw")
        + busiest(&|s| s.write_faults) * u("dsm.page.write_fault_us.sw")
        + busiest(&|s| s.locks_remote) * u("dsm.lock.remote_acquire_us")
        + busiest(&|s| s.barriers) * u(&format!("dsm.barrier.round_us.{suffix}"))
        + u(&format!("dsm.run.fixed_us.{suffix}"));
    let explained_ms = access_ns * per_core / 1e6 + waits_us / 1e3;
    1.0 - explained_ms / wall_ms
}

/// What phase A of a traced pass hands to the assembly below.
#[derive(Default)]
struct Traced {
    rec: Recorder,
    /// Wall spent inside traced ops, root spans' denominator.
    traced_wall_ns: u64,
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    on_reports: Vec<RunReport>,
    off_reports: Vec<RunReport>,
    /// Median wall of the runs in `on_reports`.
    run_wall_ms: f64,
    service_rows: Rows,
}

fn trace_app(w: &WorkloadSpec, opts: Opts, tally: &mut Tally) -> Result<Traced, String> {
    let app = setup_app(w.name, opts)?;
    let mut t = Traced::default();
    let t0 = now_ns();
    // Traced op, untraced op and baseline take turns.
    for i in 1.. {
        let logs: Vec<ProcLog> = (0..apps::NODES).map(|_| ProcLog::default()).collect();
        let outer = now_ns();
        let ran = (app.on)(2 * i, Some(&logs));
        t.traced_wall_ns += now_ns() - outer;
        t.rec.add_run(ran.start_ns, ran.end_ns, &logs);
        let ms = ran.wall_ms();
        if let Some(report) = tally.take(ran) {
            t.traced_ms.push(ms);
            t.on_reports.push(report);
        }
        let ran = (app.on)(2 * i + 1, None);
        let ms = ran.wall_ms();
        if let Some(report) = tally.take(ran) {
            t.plain_ms.push(ms);
            t.on_reports.push(report);
        }
        if let Some(report) = tally.take((app.off)(i)) {
            t.off_reports.push(report);
        }
        if (now_ns() - t0) as f64 / 1e9 >= opts.seconds * 0.4 {
            break;
        }
    }
    t.run_wall_ms = median(&t.plain_ms);
    Ok(t)
}

/// The service rows the closed loops yield: per-call costs and the stages
/// of a job as its client saw them (detailed loops), and the daemon's
/// counters from `stats.0` to `stats.1` (all loops).
fn service_rows(
    detail: &[ClientLog],
    stats: (&cvm_service::DaemonStats, &cvm_service::DaemonStats),
) -> Rows {
    let jobs = || detail.iter().flat_map(|l| l.jobs.iter());
    let (before, after) = stats;
    vec![
        (
            "service.submit_us",
            detail
                .iter()
                .flat_map(|l| l.submit_us.iter().copied())
                .collect(),
        ),
        (
            "service.status_us",
            detail
                .iter()
                .flat_map(|l| l.status_us.iter().copied())
                .collect(),
        ),
        (
            "service.queue_wait_ms",
            jobs()
                .map(|j| (j.running_ns - j.accepted_ns) as f64 / 1e6)
                .collect(),
        ),
        (
            "service.run_ms",
            jobs()
                .map(|j| (j.end_ns - j.running_ns) as f64 / 1e6)
                .collect(),
        ),
        (
            "service.pool.attempts",
            vec![(after.pool.attempts - before.pool.attempts) as f64],
        ),
        (
            "service.pool.retries",
            vec![(after.pool.retries - before.pool.retries) as f64],
        ),
        (
            "service.queue_full",
            vec![detail.iter().map(|l| l.queue_full).sum::<u64>() as f64],
        ),
    ]
}

fn add_job_spans(rec: &mut Recorder, logs: &[ClientLog]) {
    for j in logs.iter().flat_map(|l| l.jobs.iter()) {
        rec.add_op(
            "job",
            j.start_ns,
            j.end_ns,
            [
                ("submit", j.start_ns, j.accepted_ns),
                ("queue_wait", j.accepted_ns, j.running_ns),
                ("run", j.running_ns, j.end_ns),
            ],
        );
    }
}

/// Closed loops with per-job stage timestamps (`detail`) and without, then
/// the direct baseline.  `loop_s` is the length of each kind of loop; with
/// none, each runs 150 jobs.
fn trace_service(
    kind: Kind,
    clients: usize,
    opts: Opts,
    loop_s: Option<f64>,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let mut svc = Service::start(kind, opts.seed, clients)?;
    // Four half-length segments — detailed, plain, plain, detailed — so the
    // drift of a daemon whose job table only grows lands on both alike.
    let until = |from_ns: u64| match loop_s {
        Some(s) => Until::DeadlineNs(from_ns + (s * 0.5 * 1e9) as u64),
        None => Until::Jobs(if opts.smoke { 3 } else { 75 }),
    };
    let before = svc.stats();
    let (mut detail, mut plain) = (Vec::new(), Vec::new());
    let mut traced_wall_ns = 0;
    for detailed in [true, false, false, true] {
        let t0 = now_ns();
        let logs = svc.run(until(t0), detailed);
        tally.add_clients(&logs);
        if detailed {
            traced_wall_ns += (now_ns() - t0) * clients as u64;
            detail.extend(logs);
        } else {
            plain.extend(logs);
        }
    }
    let after = svc.stats();
    svc.stop();
    let mut rec = Recorder::default();
    add_job_spans(&mut rec, &detail);
    let deadline = now_ns() + (loop_s.unwrap_or(0.0) * 0.5 * 1e9) as u64;
    let (direct_ms, on_reports) = direct_jobs(opts, deadline, tally);
    let traced_ms = latencies(&detail);
    let mut rows = service_rows(&detail, (&before, &after));
    rows.push((
        "service.overhead_ratio",
        vec![mix_median(&traced_ms) / mix_median(&direct_ms)],
    ));
    // A direct job runs its seeds back to back; a run is one of them.
    let direct_ms = ms_only(&direct_ms);
    let run_wall_ms = median(&direct_ms) / 2.0;
    rows.push(("service.direct_run_ms", direct_ms));
    Ok(Traced {
        rec,
        traced_wall_ns,
        traced_ms: ms_only(&traced_ms),
        plain_ms: ms_only(&latencies(&plain)),
        on_reports,
        off_reports: Vec::new(),
        run_wall_ms,
        service_rows: rows,
    })
}

pub fn traced(w: &'static WorkloadSpec, opts: Opts) -> Result<Pass, String> {
    let mut tally = Tally::default();
    std::fs::create_dir_all(service::scratch_dir()).map_err(|e| e.to_string())?;
    let kind = Kind::from_name(w.name);
    let t = match kind {
        None => trace_app(w, opts, &mut tally)?,
        Some(kind) => trace_service(kind, CLIENTS, opts, Some(opts.seconds * 0.15), &mut tally)?,
    };

    let mut rows = Rows::new();
    rows.extend(layers::kernels(opts.smoke));
    rows.extend(layers::detector_epoch(opts.smoke));
    rows.extend(layers::codec(opts.smoke));
    rows.extend(layers::hops(opts.seed, opts.smoke));
    rows.extend(layers::dsm_ops(opts.seed, opts.smoke));
    rows.extend(layers::service_parts(opts.seed, opts.smoke)?);
    rows.extend(count_rows(&t.on_reports, &t.off_reports));
    if kind.is_some() {
        rows.extend(t.service_rows);
    } else {
        // An app workload still reports the service rows: from a short
        // single-client loop on an in-memory daemon.
        let mut none = Tally::default();
        rows.extend(trace_service(Kind::InProc, 1, opts, None, &mut none)?.service_rows);
        if let Some(why) = none.first_failure {
            return Err(format!("service micro-loop: {why}"));
        }
    }

    let unit: BTreeMap<&str, f64> = rows.iter().map(|(name, xs)| (*name, median(xs))).collect();
    let unattributed = t
        .on_reports
        .last()
        .map_or(0.0, |r| unattributed_share(r, t.run_wall_ms, &unit));
    rows.push(("apps.unattributed_share", vec![unattributed]));

    let ops = t.rec.ops().max(1) as f64;
    rows.push((
        "trace.overhead_ratio",
        vec![median(&t.traced_ms) / median(&t.plain_ms)],
    ));
    rows.push((
        "trace.coverage_share",
        vec![t.rec.root_ns() as f64 / t.traced_wall_ns.max(1) as f64],
    ));
    // One self-time row per span name the table lists.
    for m in &PER_LAYER {
        if let Some(span) = m.name.strip_prefix("trace.self_ms.") {
            let self_ns = t.rec.totals().get(span).map_or(0, |n| n.self_ns);
            rows.push((m.name, vec![self_ns as f64 / ops / 1e6]));
        }
    }
    let spans = service::scratch_dir().join(format!("spans-{}-{}.jsonl", w.name, opts.seed));
    t.rec.write_jsonl(&spans).map_err(|e| e.to_string())?;
    println!("# spans written to {}", spans.display());

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let xs = rows
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, xs)| xs.as_slice())
                .ok_or_else(|| format!("no row for {}", m.name))?;
            Ok(sampled(m.name, m.unit, xs))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some((stray, _)) = rows
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|m| m.name == *n))
    {
        return Err(format!("row {stray} is not in the per-layer table"));
    }
    Ok(Pass {
        workload: w.name,
        seed: opts.seed,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
    })
}

pub fn pass(name: &str, opts: Opts, traced_pass: bool) -> Result<Pass, String> {
    let w = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    if traced_pass {
        traced(w, opts)
    } else {
        untraced(w, opts)
    }
}
