//! Two runs of each of the paper's applications under one synchronisation
//! order leave equal [`RunReport::schedule_free`] projections, so a counter
//! declared repeating that host scheduling moves fails here, most readily
//! under CPU contention.  `sharing` is each program's property "two
//! processes write one page in one epoch".

use cvm_repro::apps::{fft, sor, tsp, water};
use cvm_repro::dsm::{DsmConfig, Protocol, RunReport};
use cvm_repro::page::Geometry;
use cvm_testkit::assert_same_report;

/// Runs `app` twice and compares the runs.
fn twice(what: &str, sharing: bool, app: impl Fn() -> RunReport) {
    let (a, b) = (app(), app());
    assert_same_report(what, &a, &b, sharing);
}

/// Records one run's synchronisation order, then runs `app` twice
/// replaying it (§6.1) and compares the replays.
fn twice_replayed(what: &str, sharing: bool, cfg: DsmConfig, app: impl Fn(DsmConfig) -> RunReport) {
    let mut record = cfg.clone();
    record.record_sync = true;
    let schedule = app(record).schedule;
    assert!(!schedule.is_empty(), "{what}: nothing recorded");
    twice(what, sharing, || {
        app(DsmConfig {
            replay: Some(schedule.clone()),
            ..cfg.clone()
        })
    });
}

#[test]
fn sor_repeats() {
    // Rows are padded to whole pages, so no page has two writers.
    let params = sor::SorParams::small();
    twice("SOR", false, || sor::run(DsmConfig::new(4), params).0);
}

#[test]
fn fft_repeats_under_both_protocols_and_page_sizes() {
    // Adjacent processes' row blocks share boundary pages, which both
    // write in the transpose epochs.
    let params = fft::FftParams {
        m: 16,
        inverse: false,
    };
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        for page_bytes in [128, 4096] {
            let mut cfg = DsmConfig::new(3);
            cfg.protocol = protocol;
            cfg.geometry = Geometry::with_page_bytes(page_bytes);
            let what = format!("FFT {protocol:?} {page_bytes} B");
            twice(&what, true, || fft::run(cfg.clone(), params).0);
        }
    }
}

#[test]
fn water_repeats_under_replay() {
    // Every process adds into the global virial without the lock (the
    // paper's bug), and the partitions' force blocks share pages.
    let params = water::WaterParams::small();
    twice_replayed("Water", true, DsmConfig::new(4), |cfg| {
        water::run(cfg, params).0
    });
}

#[test]
fn tsp_repeats_under_replay() {
    // The stack top (under the queue lock) and the bound (under the bound
    // lock) share a page, which processes write in one epoch.  The bound
    // is read under its lock: pruning on the racy bound decides how much a
    // run searches, which no replay pins (the paper's caveat to §6.1).
    // Nine cities cost minutes unoptimised; seven take a second.
    let params = tsp::TspParams {
        synchronized_bound: true,
        ncities: 7,
        ..tsp::TspParams::small()
    };
    twice_replayed("TSP", true, DsmConfig::new(4), |cfg| {
        tsp::run(cfg, params).0
    });
}
