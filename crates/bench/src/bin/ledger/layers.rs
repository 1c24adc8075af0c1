//! Micro-programs behind the kernel and DSM-op rows of the per-layer
//! profile.  Each drives one layer through its public functions and
//! returns raw samples; counts come from the workload runs instead.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use cvm_bench::epoch_synth;
use cvm_dsm::{Cluster, DetectConfig, DsmConfig, FaultPlan, Msg, Protocol, RecoveryPolicy};
use cvm_instrument::AnalysisRuntime;
use cvm_net::wire::{decode_frame, encode_frame, Wire};
use cvm_net::{ByteBreakdown, Endpoint, NetConfig, Network, TrafficClass};
use cvm_page::{Bitmap, Diff, GAddr, Geometry, PageId, SHARED_BASE};
use cvm_race::{make_interval, EpochDetector};
use cvm_service::json::{parse, Value};
use cvm_service::{
    tcp::handle_line, FsyncPolicy, JobId, JobSpec, JournalRecord, OutcomeImage, Persist,
    PersistConfig, Workload,
};
use cvm_vclock::{IntervalId, IntervalStamp, ProcId, VClock};

use crate::apps::{self, recover_cfg, storm_run, tight_wire, NODES};
use crate::service::{self, Kind, Service, Until};
use crate::spans::ProcLog;
use crate::stats::median;

/// Named sample sets, in the row's unit.
pub type Rows = Vec<(&'static str, Vec<f64>)>;

/// Samples per timed row at full size (the issue's floor is 200).
const SAMPLES: usize = 200;

fn samples(smoke: bool) -> usize {
    if smoke {
        5
    } else {
        SAMPLES
    }
}

/// Times `n` batches of `per` calls; one sample per batch, in ns per call.
fn batch_ns(n: usize, per: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                f();
            }
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect()
}

fn scaled(xs: Vec<f64>, by: f64) -> Vec<f64> {
    xs.into_iter().map(|x| x * by).collect()
}

// --- vclock, page, instrument ------------------------------------------------

fn stamps(n: usize) -> Vec<IntervalStamp> {
    (0..n)
        .map(|i| {
            let p = (i % 8) as u16;
            let idx = (i / 8 + 1) as u32;
            let mut vc = vec![0u32; 8];
            vc[(i + 3) % 8] = (i % 5) as u32;
            vc[p as usize] = idx;
            IntervalStamp::new(IntervalId::new(ProcId(p), idx), VClock::from(vc))
        })
        .collect()
}

pub fn kernels(smoke: bool) -> Rows {
    let n = samples(smoke);
    let mut rows = Rows::new();

    let s = stamps(64);
    let all_pairs = batch_ns(n, 1, || {
        let mut hits = 0u32;
        for a in &s {
            for b in &s {
                hits += u32::from(a.concurrent_with(black_box(b)));
            }
        }
        black_box(hits);
    });
    rows.push((
        "vclock.concurrent_check_ns",
        scaled(all_pairs, 1.0 / (64.0 * 64.0)),
    ));

    let mut a = Bitmap::new(1024);
    let mut b = Bitmap::new(1024);
    (0..1024).step_by(5).for_each(|i| a.set(i));
    (2..1024).step_by(7).for_each(|i| b.set(i));
    rows.push((
        "page.bitmap.overlap_1024_ns",
        batch_ns(n, 1000, || {
            black_box(black_box(&a).overlaps(black_box(&b)));
        }),
    ));
    rows.push((
        "page.bitmap.overlap_words_1024_ns",
        batch_ns(n, 100, || {
            black_box(black_box(&a).overlap_words(black_box(&b)).count());
        }),
    ));
    let mut bm = Bitmap::new(1024);
    let sets = batch_ns(n, 1, || {
        bm.clear();
        for i in 0..1024 {
            bm.set(black_box(i));
        }
        black_box(&bm);
    });
    rows.push(("page.bitmap.set_ns", scaled(sets, 1.0 / 1024.0)));

    let twin: Vec<u64> = (0..1024).collect();
    let mut cur = twin.clone();
    (0..1024).step_by(9).for_each(|i| cur[i] ^= 0xFF);
    let make = batch_ns(n, 10, || {
        black_box(Diff::make(PageId(0), black_box(&twin), black_box(&cur)));
    });
    rows.push(("page.diff.make_1024_us", scaled(make, 1e-3)));
    let diff = Diff::make(PageId(0), &twin, &cur);
    let mut data = twin.clone();
    let apply = batch_ns(n, 100, || {
        black_box(&diff).apply(black_box(&mut data));
    });
    rows.push(("page.diff.apply_us", scaled(apply, 1e-3)));

    let mut rt = AnalysisRuntime::new();
    for (name, base) in [
        ("instrument.check_shared_ns", SHARED_BASE),
        ("instrument.check_private_ns", 0x1000),
    ] {
        let checks = batch_ns(n, 1, || {
            for i in 0..4096u64 {
                black_box(rt.check(black_box(GAddr(base + i * 8))));
            }
        });
        rows.push((name, scaled(checks, 1.0 / 4096.0)));
    }
    rows
}

// --- core --------------------------------------------------------------------

/// One synthetic 8-node lock-heavy epoch (1 536 intervals) through the
/// default detector, split into its two phases.
pub fn detector_epoch(smoke: bool) -> Rows {
    let g = Geometry::with_page_bytes(epoch_synth::PAGE_WORDS * 8);
    let intervals = epoch_synth::epoch();
    let store = epoch_synth::bitmaps(&intervals, g);
    let detector = EpochDetector::new();
    let (mut plan_us, mut compare_us, mut epoch_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = None;
    for _ in 0..samples(smoke) {
        let t0 = Instant::now();
        let mut plan = detector.plan(black_box(&intervals));
        let t1 = Instant::now();
        let found = detector
            .compare(&mut plan, &store, g, 0)
            .expect("every planned bitmap is in the store")
            .len();
        let t2 = Instant::now();
        assert_eq!(*reports.get_or_insert(found), found, "epoch reports repeat");
        plan_us.push((t1 - t0).as_nanos() as f64 / 1e3);
        compare_us.push((t2 - t1).as_nanos() as f64 / 1e3);
        epoch_us.push((t2 - t0).as_nanos() as f64 / 1e3);
    }
    vec![
        ("core.plan_us", plan_us),
        ("core.compare_us", compare_us),
        ("core.epoch_us", epoch_us),
    ]
}

// --- net ---------------------------------------------------------------------

fn grant_msg() -> Msg {
    let records = (0..32u32)
        .map(|i| {
            let mut vc = vec![0u32; 8];
            vc[(i % 8) as usize] = i / 8 + 1;
            std::sync::Arc::new(make_interval(
                (i % 8) as u16,
                i / 8 + 1,
                vc,
                &[i, i + 1, i + 2],
                &[i + 3, i + 4, i + 5, i + 6],
            ))
        })
        .collect();
    Msg::LockGrant {
        lock: 3,
        records,
        vc: VClock::from(vec![4; 8]),
        trace_from: None,
    }
}

pub fn codec(smoke: bool) -> Rows {
    let n = samples(smoke);
    let page = Msg::PageReadReply {
        page: PageId(7),
        data: (0..1024u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
    };
    let page_bytes = page.to_bytes();
    let frame = encode_frame(&page_bytes);
    let grant = grant_msg();
    let grant_bytes = grant.to_bytes();
    vec![
        (
            "net.wire.page_encode_8k_ns",
            batch_ns(n, 20, || {
                black_box(black_box(&page).to_bytes());
            }),
        ),
        (
            "net.wire.page_decode_8k_ns",
            batch_ns(n, 20, || {
                black_box(Msg::from_bytes(black_box(&page_bytes)).expect("own encoding"));
            }),
        ),
        (
            "net.wire.frame_encode_8k_ns",
            batch_ns(n, 20, || {
                black_box(encode_frame(black_box(&page_bytes)));
            }),
        ),
        (
            "net.wire.frame_decode_8k_ns",
            batch_ns(n, 20, || {
                black_box(decode_frame(black_box(&frame)).expect("own frame"));
            }),
        ),
        (
            "net.wire.grant_encode_ns",
            batch_ns(n, 20, || {
                black_box(black_box(&grant).to_bytes());
            }),
        ),
        (
            "net.wire.grant_decode_ns",
            batch_ns(n, 20, || {
                black_box(Msg::from_bytes(black_box(&grant_bytes)).expect("own encoding"));
            }),
        ),
    ]
}

/// Ping-pong between two endpoints; one sample is the mean hop (half a
/// round trip) over a batch, in µs.
fn ping_pong(mut eps: Vec<Endpoint>, n: usize, per: usize) -> Vec<f64> {
    let echo = eps.pop().expect("two endpoints");
    let ping = eps.pop().expect("two endpoints");
    let send = |ep: &Endpoint, dst: u16, len: usize| {
        ep.sender()
            .send(
                ProcId(dst),
                0,
                ByteBreakdown::single(TrafficClass::Data, len as u64),
                vec![1; len],
            )
            .expect("peer alive");
    };
    // The endpoint moves into its thread: a receiver is not shareable.
    let echoer = std::thread::spawn(move || {
        // An empty payload ends the echo.
        while let Ok(pkt) = echo.recv() {
            if pkt.payload.is_empty() {
                break;
            }
            send(&echo, 0, pkt.payload.len());
        }
    });
    let out = (0..n)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                send(&ping, 1, 64);
                ping.recv().expect("echo");
            }
            t.elapsed().as_nanos() as f64 / 1e3 / (2 * per) as f64
        })
        .collect();
    send(&ping, 1, 0);
    echoer.join().expect("echo thread");
    out
}

pub fn hops(seed: u64, smoke: bool) -> Rows {
    let n = samples(smoke);
    let (plain, _) = Network::new(2, NetConfig::default());
    let (reliable, _, _) =
        Network::with_loss(2, NetConfig::default(), tight_wire(FaultPlan::clean(seed)));
    vec![
        ("net.link.hop_us", ping_pong(plain, n, 50)),
        ("net.reliable.hop_us", ping_pong(reliable, n, 10)),
    ]
}

// --- dsm ---------------------------------------------------------------------

fn run_ok<S: Sync>(
    cfg: DsmConfig,
    setup: impl FnOnce(&mut cvm_page::SharedAlloc) -> S,
    body: impl Fn(&cvm_dsm::ProcHandle, &S) + Sync,
) -> cvm_dsm::RunReport {
    Cluster::run(cfg, setup, body).expect("micro-program on a clean link")
}

/// `Cluster::run` with an empty body and one barrier, and the steady-state
/// barrier round, on 2, 4 and 8 nodes.
fn fixed_and_barrier(smoke: bool) -> Rows {
    let n = samples(smoke);
    let mut rows = Rows::new();
    for (nodes, fixed, round) in [
        (2, "dsm.run.fixed_us.n2", "dsm.barrier.round_us.n2"),
        (4, "dsm.run.fixed_us.n4", "dsm.barrier.round_us.n4"),
        (8, "dsm.run.fixed_us.n8", "dsm.barrier.round_us.n8"),
    ] {
        let fixed_us = (0..n)
            .map(|_| {
                let t = Instant::now();
                run_ok(DsmConfig::new(nodes), |_| (), |h, ()| h.barrier());
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        rows.push((fixed, fixed_us));

        const PER: usize = 10;
        let rounds = Mutex::new(Vec::new());
        run_ok(
            DsmConfig::new(nodes),
            |_| (),
            |h, ()| {
                for _ in 0..n {
                    let t = Instant::now();
                    for _ in 0..PER {
                        h.barrier();
                    }
                    if h.proc() == 0 {
                        let us = t.elapsed().as_nanos() as f64 / 1e3 / PER as f64;
                        rounds.lock().expect("rounds").push(us);
                    }
                }
            },
        );
        rows.push((round, rounds.into_inner().expect("rounds")));
    }
    rows
}

/// Remote acquire (token last held by the other node) and local
/// acquire-and-release (token cached here) of a lock.
fn locks(smoke: bool) -> Rows {
    let n = samples(smoke);
    const CACHED: u32 = 64;
    let remote = Mutex::new(Vec::new());
    let local = Mutex::new(Vec::new());
    run_ok(
        DsmConfig::new(2),
        |_| (),
        |h, ()| {
            let total = n as u32 + CACHED;
            if h.proc() == 1 {
                for lock in 1..=total {
                    h.lock(lock);
                    h.unlock(lock);
                }
            }
            h.barrier();
            if h.proc() == 0 {
                // Every token sits at node 1: each acquire crosses the wire.
                let mut us = Vec::new();
                for lock in 1..=total {
                    let t = Instant::now();
                    h.lock(lock);
                    us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    h.unlock(lock);
                }
                *remote.lock().expect("remote") = us;
            }
            // Now they are all cached at node 0.  A barrier between samples
            // retires the intervals each one opens, as a program's epochs do.
            for _ in 0..n {
                h.barrier();
                if h.proc() == 0 {
                    let t = Instant::now();
                    for lock in 1..=CACHED {
                        h.lock(lock);
                        h.unlock(lock);
                    }
                    let ns = t.elapsed().as_nanos() as f64 / f64::from(CACHED);
                    local.lock().expect("local").push(ns);
                }
            }
            h.barrier();
        },
    );
    vec![
        (
            "dsm.lock.remote_acquire_us",
            remote.into_inner().expect("remote"),
        ),
        (
            "dsm.lock.local_acquire_ns",
            local.into_inner().expect("local"),
        ),
    ]
}

/// Page-hit shared reads and writes, detection on and off.
fn accesses(smoke: bool) -> Rows {
    let n = samples(smoke);
    let mut rows = Rows::new();
    for (on, read, write) in [
        (true, "dsm.access.read_ns.on", "dsm.access.write_ns.on"),
        (false, "dsm.access.read_ns.off", "dsm.access.write_ns.off"),
    ] {
        let mut cfg = DsmConfig::new(1);
        cfg.detect = if on {
            DetectConfig::on()
        } else {
            DetectConfig::off()
        };
        let out = Mutex::new((Vec::new(), Vec::new()));
        run_ok(
            cfg,
            |alloc| alloc.alloc_page_aligned("page", 4096).expect("one page"),
            |h, &page| {
                h.write(page, 1);
                let mut i = 0u64;
                let reads = batch_ns(n, 4096, || {
                    i = (i + 1) % 512;
                    black_box(h.read(page.word(i)));
                });
                let writes = batch_ns(n, 4096, || {
                    i = (i + 1) % 512;
                    h.write(page.word(i), i);
                });
                *out.lock().expect("out") = (reads, writes);
                h.barrier();
            },
        );
        let (reads, writes) = out.into_inner().expect("out");
        rows.push((read, reads));
        rows.push((write, writes));
    }
    rows
}

/// Read and write faults on 8 KB pages last written by the other node,
/// under both protocols.
fn faults(smoke: bool) -> Rows {
    let n = samples(smoke) as u64;
    let mut rows = Rows::new();
    for (protocol, read, write) in [
        (
            Protocol::SingleWriter,
            "dsm.page.read_fault_us.sw",
            "dsm.page.write_fault_us.sw",
        ),
        (
            Protocol::MultiWriter,
            "dsm.page.read_fault_us.mw",
            "dsm.page.write_fault_us.mw",
        ),
    ] {
        let mut cfg = DsmConfig::new(2);
        cfg.geometry = Geometry::with_page_bytes(8192);
        cfg.protocol = protocol;
        let out = Mutex::new((Vec::new(), Vec::new()));
        run_ok(
            cfg,
            |alloc| {
                alloc
                    .alloc_page_aligned("pages", 2 * n * 8192)
                    .expect("pages fit the segment")
            },
            |h, &base| {
                let page = |p: u64| base.offset(p * 8192);
                if h.proc() == 1 {
                    for p in 0..2 * n {
                        h.write(page(p), p + 1);
                    }
                }
                h.barrier();
                if h.proc() == 0 {
                    let timed = |p: u64, write: bool| {
                        let t = Instant::now();
                        if write {
                            h.write(page(p), 0);
                        } else {
                            assert_eq!(h.read(page(p)), p + 1, "page {p} arrived intact");
                        }
                        t.elapsed().as_nanos() as f64 / 1e3
                    };
                    let reads = (0..n).map(|p| timed(p, false)).collect();
                    let writes = (n..2 * n).map(|p| timed(p, true)).collect();
                    *out.lock().expect("out") = (reads, writes);
                }
                h.barrier();
            },
        );
        let (reads, writes) = out.into_inner().expect("out");
        rows.push((read, reads));
        rows.push((write, writes));
    }
    rows
}

/// Mean barrier wait of the last-arriving process — settle + detect +
/// release in the synchronous master, settle + release when pipelined —
/// on the 12-epoch storm, plus the pipeline's stall count.
fn barrier_waits(smoke: bool) -> Rows {
    let runs = if smoke { 2 } else { 12 };
    let epochs = apps::recover_epochs(smoke);
    let mut rows = Rows::new();
    let mut stalls = Vec::new();
    for (name, detect) in [
        ("dsm.barrier.wait_us.sync", DetectConfig::on()),
        ("dsm.barrier.wait_us.pipelined", DetectConfig::pipelined()),
    ] {
        let mut waits = Vec::new();
        for _ in 0..runs {
            let mut cfg = DsmConfig::new(NODES);
            cfg.detect = detect;
            let logs: Vec<ProcLog> = (0..NODES).map(|_| ProcLog::default()).collect();
            let report = storm_run(cfg, epochs, Some(&logs))
                .result
                .expect("storm on a clean link");
            // Per-process mean barrier wait; the minimum belongs to the
            // last arrival.
            let last = logs
                .iter()
                .map(|log| {
                    let waits: Vec<f64> = log
                        .take()
                        .into_iter()
                        .filter(|(name, ..)| *name == "barrier")
                        .map(|(_, start, end)| (end - start) as f64 / 1e3)
                        .collect();
                    waits.iter().sum::<f64>() / waits.len() as f64
                })
                .fold(f64::INFINITY, f64::min);
            waits.push(last);
            if detect.pipelined {
                stalls.push(report.pipeline().1 as f64);
            }
        }
        rows.push((name, waits));
    }
    rows.push(("dsm.pipeline.stalls", stalls));
    rows
}

/// Checkpoint commit cost per epoch (checkpointing minus not, same clean
/// reliable wire) and the restart cost of one scripted kill (killed minus
/// un-killed, same lossy wire).
fn checkpoint_and_restart(seed: u64, smoke: bool) -> Rows {
    let runs = if smoke { 2 } else { 8 };
    let epochs = apps::recover_epochs(smoke);
    let wall = |cfg: DsmConfig| {
        let ran = storm_run(cfg, epochs, None);
        let ms = ran.wall_ms();
        (ms, ran.result.expect("storm run"))
    };
    let (mut plain, mut ckpt, mut alive, mut killed) = (vec![], vec![], vec![], vec![]);
    let mut bytes = Vec::new();
    for i in 0..runs {
        let mut cfg = DsmConfig::new(NODES);
        cfg.net_loss = Some(tight_wire(FaultPlan::clean(apps::mix(seed, i))));
        plain.push(wall(cfg.clone()).0);
        cfg.recovery = RecoveryPolicy::Recover { max_attempts: 3 };
        let (ms, report) = wall(cfg);
        ckpt.push(ms);
        bytes.push(report.recovery.bytes_snapshotted as f64 / epochs as f64);
        alive.push(wall(recover_cfg(apps::mix(seed, i), false)).0);
        killed.push(wall(recover_cfg(apps::mix(seed, i), true)).0);
    }
    let commit_us = (median(&ckpt) - median(&plain)) * 1e3 / epochs as f64;
    let restart_ms = median(&killed) - median(&alive);
    vec![
        ("dsm.ckpt.commit_us", vec![commit_us]),
        ("dsm.recover.restart_ms", vec![restart_ms]),
        ("dsm.ckpt.bytes_per_epoch", bytes),
    ]
}

pub fn dsm_ops(seed: u64, smoke: bool) -> Rows {
    let mut rows = fixed_and_barrier(smoke);
    rows.extend(locks(smoke));
    rows.extend(accesses(smoke));
    rows.extend(faults(smoke));
    rows.extend(barrier_waits(smoke));
    rows.extend(checkpoint_and_restart(seed, smoke));
    rows
}

// --- service -----------------------------------------------------------------

/// The front-end and journal pieces a job passes through, one at a time.
pub fn service_parts(seed: u64, smoke: bool) -> Result<Rows, String> {
    let n = samples(smoke);
    let mut rows = Rows::new();

    let submit_line = Value::obj([
        ("op", Value::Str("submit".into())),
        ("workload", Value::Str("mixed_stripes".into())),
        ("epochs", Value::Int(4)),
        ("nprocs", Value::Int(3)),
        ("seed_base", Value::Int(12_345)),
        ("seed_count", Value::Int(2)),
    ])
    .to_string();
    let parse_ns = batch_ns(n, 20, || {
        black_box(parse(black_box(&submit_line)).expect("own request"));
    });
    rows.push(("service.json.parse_us", scaled(parse_ns, 1e-3)));

    // One durable daemon behind TCP serves the rest.
    let mut svc = Service::start(Kind::TcpDurable, seed, 1)?;
    let status_line = r#"{"op":"status","job":1}"#;
    let handle_ns = batch_ns(n, 20, || {
        black_box(handle_line(svc.daemon(), black_box(status_line)));
    });
    rows.push(("service.tcp.handle_line_us", scaled(handle_ns, 1e-3)));
    rows.push(("service.tcp.ping_rtt_us", svc.ping_rtts(n)?));
    let before = svc.stats();
    let jobs = if smoke { 3 } else { 40 };
    let log = svc.run(Until::Jobs(jobs), false).remove(0);
    let after = svc.stats();
    if let Some(why) = log.first_failure {
        return Err(format!("durable job failed: {why}"));
    }
    rows.push((
        "service.persist.fsyncs_per_job",
        vec![(after.persist.fsyncs - before.persist.fsyncs) as f64 / jobs as f64],
    ));
    svc.stop();

    for (name, fsync) in [
        ("service.persist.record_us.always", FsyncPolicy::Always),
        ("service.persist.record_us.never", FsyncPolicy::Never),
    ] {
        let dir = service::scratch_dir().join(format!("persist-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (persist, _) = Persist::open(&PersistConfig {
            fsync,
            ..PersistConfig::at(&dir)
        })
        .map_err(|e| e.to_string())?;
        // A job's life as the daemon journals it: admitted, both seeds
        // done, sealed.
        let spec = JobSpec::new(Workload::RacyCounter { epochs: 4 }, 2, 1, 2);
        let mut us = Vec::new();
        for job in 1..=n.div_ceil(4) as u64 {
            let job = JobId(job);
            let mut records = vec![JournalRecord::Submitted {
                job,
                spec: spec.clone(),
            }];
            records.extend(spec.seeds().map(|seed| JournalRecord::SeedDone {
                job,
                seed,
                outcome: OutcomeImage::Done {
                    retries: 0,
                    occurrences: vec![0xDA7A_4ACE; 4],
                    rendered: vec![(0xDA7A_4ACE, "DATA RACE (write-write)".into())],
                    recovery: [0; 4],
                },
            }));
            records.push(JournalRecord::Sealed { job });
            for rec in &records {
                let t = Instant::now();
                persist.record(rec);
                us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        if persist.stats().io_errors != 0 {
            return Err("journal I/O errors".into());
        }
        drop(persist);
        std::fs::remove_dir_all(&dir).ok();
        rows.push((name, us));
    }
    Ok(rows)
}
