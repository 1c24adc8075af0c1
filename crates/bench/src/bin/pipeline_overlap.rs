//! Pipelined-detection measurements, persisted to `bench_results/`.
//!
//! Two experiments:
//!
//! 1. **Kernel timings** (`bench_results/detector_epoch.csv`): one 8-node
//!    synthetic detection epoch ([`cvm_bench::epoch_synth`]) through the
//!    paper's serial master, this codebase's optimized default, and the
//!    pipelined stage's steady state (persistent arena + SWAR chunk
//!    comparison).  Wall-clock medians; the Criterion bench
//!    `detector_epoch` measures the same rows with full rigor.
//!
//! 2. **Overlap** (`bench_results/pipeline_overlap.csv`): an 8-node
//!    lock-heavy cluster run, synchronous vs pipelined detection.  Every
//!    process times its `barrier()` calls; the *minimum* mean wait across
//!    processes belongs to the last arrival, whose wait is exactly the
//!    barrier-release latency — settle + detection + release in the
//!    synchronous master, settle + release alone when the comparison is
//!    pipelined.  The final row is the pipelined/synchronous ratio, the
//!    ISSUE's ≤ 0.15 acceptance number.

use cvm_bench::epoch_synth::{bitmaps, epoch, PAGE_WORDS};
use cvm_bench::results::Csv;
use cvm_dsm::{Cluster, DetectConfig, DsmConfig, RunReport};
use cvm_page::Geometry;
use cvm_race::{BitmapStore, EpochArena, EpochDetector, Interval, PairEnumeration};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const KERNEL_ITERS: usize = 41;

/// Cluster-run shape: 8 nodes, `EPOCHS` barrier epochs, `LOCK_OPS`
/// disjoint-lock intervals per process per epoch (every interval is
/// concurrent with every remote interval, so the naive enumeration pays
/// its full quadratic cost), `COMPUTE` of modeled computation per epoch
/// for the pipelined stage to overlap with.
const NPROCS: usize = 8;
const EPOCHS: u64 = 6;
const LOCK_OPS: u64 = 96;
const COMPUTE: Duration = Duration::from_millis(25);

fn median_us(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn time_kernel(
    iters: usize,
    mut f: impl FnMut(&[Interval], &BitmapStore) -> usize,
    intervals: &[Interval],
    store: &BitmapStore,
) -> (f64, usize) {
    let mut times = Vec::with_capacity(iters);
    let mut reports = 0;
    for _ in 0..iters {
        let t = Instant::now();
        reports = f(intervals, store);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median_us(times), reports)
}

fn kernel_rows() {
    let g = Geometry::with_page_bytes(PAGE_WORDS * 8);
    let intervals = epoch();
    let store = bitmaps(&intervals, g);

    let serial = EpochDetector {
        enumeration: PairEnumeration::Naive,
        workers: 1,
        ..EpochDetector::new()
    };
    let optimized = EpochDetector {
        enumeration: PairEnumeration::Pruned,
        workers: 0,
        ..EpochDetector::new()
    };
    let mut arena = EpochArena::new();

    let run = |d: &EpochDetector, iv: &[Interval], st: &BitmapStore| {
        let mut plan = d.plan(iv);
        d.compare(&mut plan, st, g, 0)
            .expect("bitmaps present")
            .len()
    };
    let (serial_us, serial_n) = time_kernel(
        KERNEL_ITERS,
        |iv, st| run(&serial, iv, st),
        &intervals,
        &store,
    );
    let (opt_us, opt_n) = time_kernel(
        KERNEL_ITERS,
        |iv, st| run(&optimized, iv, st),
        &intervals,
        &store,
    );
    let (arena_us, arena_n) = time_kernel(
        KERNEL_ITERS,
        |iv, st| {
            let mut plan = optimized.plan_with(iv, &mut arena);
            optimized
                .compare_with(&mut plan, st, g, 0, &mut arena)
                .expect("bitmaps present")
                .len()
        },
        &intervals,
        &store,
    );
    assert_eq!(serial_n, opt_n, "configurations must agree on reports");
    assert_eq!(serial_n, arena_n, "arena path must agree on reports");

    let mut csv = Csv::new(
        "detector_epoch",
        &["config", "intervals", "median_us", "reports"],
    );
    let n = intervals.len();
    csv.row(&[
        &"epoch_8node_serial_baseline",
        &n,
        &format_args!("{serial_us:.1}"),
        &serial_n,
    ]);
    csv.row(&[
        &"epoch_8node_optimized_default",
        &n,
        &format_args!("{opt_us:.1}"),
        &opt_n,
    ]);
    csv.row(&[
        &"epoch_8node_swar_arena",
        &n,
        &format_args!("{arena_us:.1}"),
        &arena_n,
    ]);
    csv.flush();
    println!(
        "detection epoch (8 nodes, {n} intervals): serial {serial_us:.0} us, \
         optimized {opt_us:.0} us, swar+arena {arena_us:.0} us ({:.2}x vs serial)",
        serial_us / arena_us.max(1.0)
    );
}

/// One 8-node lock-heavy run; returns the report and the mean barrier
/// wait of the last-arriving process (minimum across processes).
fn overlap_run(detect: DetectConfig) -> (RunReport, f64) {
    let mut cfg = DsmConfig::new(NPROCS);
    cfg.detect = detect;
    // The paper's serial master in both detection modes, so the
    // synchronous run's detection epoch is the thing the pipeline hides.
    cfg.detect.enumeration = PairEnumeration::Naive;
    cfg.detect.workers = 1;

    let waits: Mutex<Vec<Vec<f64>>> = Mutex::new(vec![Vec::new(); NPROCS]);
    let report = Cluster::run(
        cfg,
        |alloc| {
            alloc
                .alloc_page_aligned("arr", (NPROCS as u64 * 512 + 512) * 8)
                .unwrap()
        },
        |h, &arr| {
            let me = h.proc() as u64;
            for e in 0..EPOCHS {
                for k in 0..LOCK_OPS {
                    // Disjoint locks: every interval is concurrent with
                    // every remote interval.
                    h.lock((me * LOCK_OPS + k) as u32 + 1);
                    h.write(arr.word(me * 512 + (e * LOCK_OPS + k) % 512), k);
                    if k == 0 {
                        // Unsynchronized clash word: a few real races per
                        // epoch, so the deferred delivery path is
                        // exercised without report-delivery bytes
                        // dominating the release latency in either mode.
                        h.write(arr.word(NPROCS as u64 * 512 + e), me);
                    }
                    h.unlock((me * LOCK_OPS + k) as u32 + 1);
                }
                std::thread::sleep(COMPUTE);
                let t = Instant::now();
                h.barrier();
                waits.lock().unwrap()[me as usize].push(t.elapsed().as_secs_f64() * 1e6);
            }
        },
    )
    .expect("healthy run");
    let min_mean = waits
        .lock()
        .unwrap()
        .iter()
        .map(|w| w.iter().sum::<f64>() / w.len().max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    (report, min_mean)
}

fn overlap_rows() {
    // Detection-off baseline: the barrier wait is pure consistency-record
    // delivery, identical in shape for all three runs.  Subtracting it
    // isolates what *detection* adds to the critical path.
    let (_off_report, off_us) = overlap_run(DetectConfig::off());
    let (sync_report, sync_us) = overlap_run(DetectConfig::on());
    let (piped_report, piped_us) = overlap_run(DetectConfig::pipelined());

    let sorted_fingerprints = |report: &RunReport| {
        let mut prints = report.races.fingerprints();
        prints.sort_unstable();
        prints
    };
    assert_eq!(
        sorted_fingerprints(&sync_report),
        sorted_fingerprints(&piped_report),
        "pipelined reports must be byte-identical to synchronous"
    );
    assert_eq!(sync_report.det_stats, piped_report.det_stats);
    let (sync_pe, sync_ps) = sync_report.pipeline();
    let (piped_pe, piped_ps) = piped_report.pipeline();
    // The synchronous detection epoch: settle-to-release time spent
    // planning, fetching bitmaps, and comparing while every process waits.
    let sync_epoch = (sync_us - off_us).max(1.0);
    // What detection still adds to the pipelined critical path (read
    // notices on the wire, deferred-report delivery, stage hand-off).
    let piped_overhead = (piped_us - off_us).max(0.0);
    let ratio = piped_overhead / sync_epoch;

    let mut csv = Csv::new(
        "pipeline_overlap",
        &[
            "mode",
            "procs",
            "epochs",
            "lock_ops_per_proc",
            "release_wait_us",
            "detect_latency_us",
            "pipelined_epochs",
            "pipeline_stalls",
            "races",
        ],
    );
    csv.row(&[
        &"detect_off_baseline",
        &NPROCS,
        &EPOCHS,
        &LOCK_OPS,
        &format_args!("{off_us:.1}"),
        &"-",
        &0u64,
        &0u64,
        &0usize,
    ]);
    csv.row(&[
        &"synchronous",
        &NPROCS,
        &EPOCHS,
        &LOCK_OPS,
        &format_args!("{sync_us:.1}"),
        &format_args!("{sync_epoch:.1}"),
        &sync_pe,
        &sync_ps,
        &sync_report.races.len(),
    ]);
    csv.row(&[
        &"pipelined",
        &NPROCS,
        &EPOCHS,
        &LOCK_OPS,
        &format_args!("{piped_us:.1}"),
        &format_args!("{piped_overhead:.1}"),
        &piped_pe,
        &piped_ps,
        &piped_report.races.len(),
    ]);
    csv.row(&[
        &"pipelined_over_sync_ratio",
        &NPROCS,
        &EPOCHS,
        &LOCK_OPS,
        &"-",
        &format_args!("{ratio:.3}"),
        &"-",
        &"-",
        &"-",
    ]);
    csv.flush();
    println!(
        "barrier-release wait (8 nodes, {} intervals/epoch): baseline {off_us:.0} us, \
         synchronous {sync_us:.0} us (detection epoch {sync_epoch:.0} us), \
         pipelined {piped_us:.0} us (overhead {piped_overhead:.0} us, ratio {ratio:.3}, \
         {piped_pe} pipelined epochs, {piped_ps} stalls)",
        NPROCS as u64 * LOCK_OPS,
    );
}

fn main() {
    kernel_rows();
    overlap_rows();
}
