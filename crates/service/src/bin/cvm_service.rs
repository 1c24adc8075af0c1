//! `cvm-service` — the race-hunt daemon, as a process.
//!
//! ```text
//! cvm-service [--addr 127.0.0.1:7199] [--workers 4] [--queue 64] [--store-mb 16]
//!             [--data-dir PATH] [--fsync always|never|every:N] [--compact-every N]
//!             [--crash POINT:N]
//! ```
//!
//! Serves the line-delimited JSON protocol on `--addr` and prints
//! `listening on <addr>` once ready (port 0 resolves to the kernel's
//! pick, so scripts can parse the line).  Shuts down gracefully — drain
//! admission, finish or cancel in-flight jobs, join the pool — when
//! stdin reaches EOF or a line reading `drain` arrives; exits 0 iff
//! every admitted job reached a terminal state.
//!
//! `--data-dir` turns on the write-ahead journal: job state survives a
//! crash and is recovered on the next start from the same directory.
//! `--compact-every N` (default 256) is the fewest journal records between
//! two snapshots; a snapshot also waits until the journal has grown as
//! large as the last one, so the journal holds at most
//! `max(N records, snapshot bytes)` and snapshot work per record does not
//! grow with the number of jobs the daemon has seen.
//! `--crash` (recovery tests only) aborts the process at the Nth hit of
//! a named persistence crash point, e.g. `--crash mid-record:3`.

use std::io::BufRead;
use std::time::Duration;

use cvm_service::{CrashSpec, Daemon, DaemonConfig, FsyncPolicy, TcpFrontEnd};

struct Args {
    addr: String,
    cfg: DaemonConfig,
    drain_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7199".into(),
        cfg: DaemonConfig::default(),
        drain_ms: 30_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue" => {
                args.cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            "--store-mb" => {
                let mb: u64 = value("--store-mb")?
                    .parse()
                    .map_err(|e| format!("--store-mb: {e}"))?;
                args.cfg.store_budget_bytes = mb << 20;
            }
            "--drain-ms" => {
                args.drain_ms = value("--drain-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-ms: {e}"))?;
            }
            "--data-dir" => {
                args.cfg.persist.data_dir = Some(value("--data-dir")?.into());
                if args.cfg.persist.compact_every == 0 {
                    args.cfg.persist.compact_every = 256;
                }
            }
            "--fsync" => {
                let policy = value("--fsync")?;
                args.cfg.persist.fsync = FsyncPolicy::parse(&policy)
                    .ok_or_else(|| format!("--fsync: '{policy}' (want always|never|every:N)"))?;
            }
            "--compact-every" => {
                args.cfg.persist.compact_every = value("--compact-every")?
                    .parse()
                    .map_err(|e| format!("--compact-every: {e}"))?;
            }
            "--crash" => {
                let spec = value("--crash")?;
                args.cfg.persist.crash = Some(
                    CrashSpec::parse(&spec)
                        .ok_or_else(|| format!("--crash: '{spec}' (want POINT:N)"))?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("cvm-service: {why}");
            eprintln!(
                "usage: cvm-service [--addr HOST:PORT] [--workers N] [--queue N] \
                 [--store-mb N] [--drain-ms N] [--data-dir PATH] \
                 [--fsync always|never|every:N] [--compact-every N] [--crash POINT:N]"
            );
            std::process::exit(2);
        }
    };

    let daemon = match Daemon::open(args.cfg) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("cvm-service: cannot open data directory: {e}");
            std::process::exit(1);
        }
    };
    let mut front = match TcpFrontEnd::serve(daemon.clone(), &args.addr) {
        Ok(front) => front,
        Err(e) => {
            eprintln!("cvm-service: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", front.addr());

    // Block on stdin: EOF or an explicit `drain` line triggers graceful
    // shutdown (the SIGTERM-equivalent for a pipe-supervised daemon).
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "drain" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    front.stop();
    let report = daemon.drain(Duration::from_millis(args.drain_ms));
    let stats = daemon.stats();
    eprintln!(
        "drained: {} jobs submitted, {} cancelled at shutdown, {} retries, {} panics caught",
        stats.jobs_submitted, report.jobs_cancelled, stats.pool.retries, stats.pool.panics_caught
    );
    let p = stats.persist;
    if p.values().iter().any(|&v| v > 0) {
        eprintln!(
            "durable: {} journal records, {} snapshots, {} recovered jobs, {} torn tails \
             truncated, {} I/O errors",
            p.journal_records,
            p.snapshots_written,
            p.recovered_jobs,
            p.torn_tail_truncations,
            p.io_errors
        );
    }
    // Exit 0 iff every admitted job is terminal (drain guarantees this
    // unless the pool wedged, which is exactly what CI wants to catch).
    let all_terminal = daemon.jobs().iter().all(|j| j.phase.is_terminal());
    std::process::exit(i32::from(!all_terminal));
}
