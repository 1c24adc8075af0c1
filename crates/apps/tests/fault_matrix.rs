//! The paper's four applications under faults and constraints: a scripted
//! node kill under [`RecoveryPolicy::Recover`], and the harshest sustainable
//! constraints — link capacity 1 (one unacked datagram per flow) and a
//! 1-byte soft memory budget (proactive GC at every interval close).  Every
//! cell must complete with correct application results and race reports
//! byte-identical to a fault-free run.
//!
//! FFT and SOR are barrier-only and deterministic.  TSP and Water acquire
//! locks, and lock-grant order steers both their racy accesses and their
//! interval structure — so the reference *records* its synchronisation
//! schedule (§6.1) and the cell *replays* it, making byte-identity a
//! meaningful assertion rather than a coin flip.

use cvm_apps::{fft, sor, tsp, water, App};
use cvm_dsm::{DsmConfig, Protocol, RecoveryPolicy, RunError, RunReport};
use cvm_testkit::{assert_equivalent, Fault, Scenario, Wire};

const NPROCS: usize = 4;

/// `app`'s cells: one scripted kill, and minimum resources on both
/// protocols.
fn cells(app: App) -> Vec<Scenario> {
    let (protocol, seed, victim, at_event, squeeze_seed) = match app {
        App::Fft => (Protocol::SingleWriter, 11, 2, 100, 31),
        App::Sor => (Protocol::MultiWriter, 12, 0, 150, 32),
        App::Tsp => (Protocol::SingleWriter, 13, 1, 150, 33),
        App::Water => (Protocol::MultiWriter, 14, 3, 200, 34),
    };
    let replay = matches!(app, App::Tsp | App::Water);
    let mut cells = vec![Scenario {
        protocol,
        recovery: RecoveryPolicy::Recover { max_attempts: 3 },
        wire: Wire::Fast(seed),
        faults: vec![Fault::Kill { victim, at_event }],
        replay,
        ..Scenario::new(NPROCS)
    }];
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        cells.push(Scenario {
            protocol,
            wire: Wire::Reliable(squeeze_seed),
            faults: vec![Fault::Capacity(1), Fault::SoftBudget(1)],
            replay,
            ..Scenario::new(NPROCS)
        });
    }
    cells
}

/// Runs `app`'s cells through `run`, which checks the application's own
/// result, and checks what each fault must leave behind.
fn assert_cells(
    app: App,
    run: impl Fn(DsmConfig) -> Result<RunReport, RunError>,
    races: impl Fn(&RunReport),
) {
    for cell in cells(app) {
        let (report, _) = assert_equivalent(&cell, &run);
        races(&report);
        let (r, g) = (report.recovery, report.resources);
        if cell.recovery == RecoveryPolicy::Abort {
            assert!(
                g.queue_high_water <= 1,
                "{cell:?}: in-flight depth {}",
                g.queue_high_water
            );
            assert!(
                g.soft_gcs > 0,
                "{cell:?}: a 1-byte soft budget must trigger GC"
            );
            assert!(
                g.retained_bytes_high_water > 0,
                "{cell:?}: the budget meter never ran"
            );
        } else {
            assert!(
                r.recoveries >= 1,
                "{cell:?}: the kill must trigger recovery"
            );
            assert!(
                r.checkpoints_taken > 0 && r.bytes_snapshotted > 0,
                "{cell:?}"
            );
        }
    }
}

#[test]
fn fft_survives_faults_exactly() {
    let params = fft::FftParams::small();
    let input = fft::input_signal(params.n());
    let expect = fft::dft_reference(&input, params.inverse);
    let run = |cfg| {
        let (report, result) = fft::run_on(cfg, params, &input);
        for (i, (a, b)) in result.data.iter().zip(&expect).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                "element {i}: {a:?} vs {b:?}"
            );
        }
        Ok(report)
    };
    assert_cells(App::Fft, run, |r| {
        assert!(r.races.is_empty(), "FFT is race-free")
    });
}

#[test]
fn sor_survives_faults_exactly() {
    let params = sor::SorParams::small();
    let expect = sor::reference(params);
    let run = |cfg| {
        let (report, result) = sor::run(cfg, params);
        for (i, (a, b)) in result.grid.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "cell {i}");
        }
        Ok(report)
    };
    assert_cells(App::Sor, run, |r| {
        assert!(r.races.is_empty(), "SOR is race-free")
    });
}

#[test]
fn tsp_survives_faults_optimally_with_replayed_schedule() {
    let params = tsp::TspParams::small();
    let dist = tsp::distance_matrix(params.ncities, params.seed);
    let (opt, _) = tsp::solve_reference(&dist, params.ncities);
    let run = |cfg| {
        let (report, result) = tsp::run(cfg, params);
        assert_eq!(result.best_len, opt, "the search must stay optimal");
        Ok(report)
    };
    assert_cells(App::Tsp, run, |r| {
        assert!(!r.races.is_empty(), "the benign bound race must survive");
    });
}

#[test]
fn water_survives_faults_exactly_with_replayed_schedule() {
    let params = water::WaterParams::small();
    let expect = water::reference(&params);
    let run = |cfg| {
        let (report, result) = water::run(cfg, params);
        for (i, (a, b)) in result.positions.iter().zip(&expect.positions).enumerate() {
            assert!((a - b).abs() < 1e-9, "position {i}");
        }
        Ok(report)
    };
    assert_cells(App::Water, run, |r| {
        let vir = r
            .segments
            .segments()
            .iter()
            .find(|s| s.name == "VIR")
            .unwrap();
        assert!(
            !r.races.at(vir.base).is_empty(),
            "the VIR write-write bug must survive"
        );
    });
}
