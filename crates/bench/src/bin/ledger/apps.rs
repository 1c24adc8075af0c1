//! The four `Cluster::run`-level workloads: what one op runs, and the check
//! every op's output must pass.

use std::collections::BTreeSet;
use std::time::Duration;

use cvm_apps::{sor, water};
use cvm_dsm::{
    Cluster, DetectConfig, DsmConfig, FaultPlan, ProcHandle, ProtocolPhase, RecoveryPolicy,
    RunReport,
};
use cvm_page::{GAddr, Geometry};
use cvm_race::RaceKind;
use cvm_vclock::ProcId;

use crate::spans::{maybe_span, now_ns, ProcLog};

/// Cluster size of every app workload: the smallest with all-pairs
/// concurrency worth detecting, and twice this box's two cores.
pub const NODES: usize = 4;

/// SplitMix64 step: derives per-run seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One finished op: when it ran and its report, or why it counts as failed
/// (the run errored or its output was wrong).
pub struct Ran {
    pub start_ns: u64,
    pub end_ns: u64,
    pub result: Result<RunReport, String>,
}

fn timed(run: impl FnOnce() -> Result<RunReport, String>) -> Ran {
    let start_ns = now_ns();
    let result = run();
    Ran {
        start_ns,
        end_ns: now_ns(),
        result,
    }
}

impl Ran {
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Turns a finished run whose output fails `check` into a failed op.
    fn check(mut self, check: impl FnOnce(&RunReport) -> Result<(), String>) -> Ran {
        if let Ok(report) = &self.result {
            if let Err(why) = check(report) {
                self.result = Err(why);
            }
        }
        self
    }
}

/// Runs op number `i` of a run (the number keys fault seeds); `logs`, one
/// per process, turns on span recording where the program is the ledger's
/// own.
type OpFn = dyn Fn(u64, Option<&[ProcLog]>) -> Ran;

/// An app workload after set-up: `on` is the measured op, `off` its
/// baseline.
pub struct AppWorkload {
    pub on: Box<OpFn>,
    pub off: Box<dyn Fn(u64) -> Ran>,
}

/// The paper's testbed shape at this box's size: 4 nodes, 8 KB pages.
fn testbed(detect: DetectConfig) -> DsmConfig {
    let mut cfg = DsmConfig::new(NODES);
    cfg.geometry = Geometry::with_page_bytes(8192);
    cfg.detect = detect;
    cfg
}

fn on_off(on: bool) -> DetectConfig {
    if on {
        DetectConfig::on()
    } else {
        DetectConfig::off()
    }
}

fn no_races(report: &RunReport) -> Result<(), String> {
    if report.races.is_empty() {
        Ok(())
    } else {
        Err(format!("{} unexpected race reports", report.races.len()))
    }
}

// --- sor_paper ---------------------------------------------------------------

pub fn sor_paper(smoke: bool) -> AppWorkload {
    let params = if smoke {
        sor::SorParams { n: 64, iters: 4 }
    } else {
        sor::SorParams::paper()
    };
    let want = std::sync::Arc::new(sor::reference(params));
    let run = move |on: bool| {
        let mut grid = Vec::new();
        timed(|| {
            let (report, result) = sor::run(testbed(on_off(on)), params);
            grid = result.grid;
            Ok(report)
        })
        .check(|report| {
            no_races(report)?;
            match grid
                .iter()
                .zip(want.iter())
                .position(|(g, w)| (g - w).abs() > 1e-12)
            {
                None if grid.len() == want.len() => Ok(()),
                at => Err(format!("grid differs from sor::reference at {at:?}")),
            }
        })
    };
    let run_off = run.clone();
    AppWorkload {
        on: Box::new(move |_, _| run(true)),
        off: Box::new(move |_| run_off(false)),
    }
}

// --- water_paper -------------------------------------------------------------

fn vir_write_write(report: &RunReport) -> bool {
    report
        .segments
        .segments()
        .iter()
        .find(|s| s.name == "VIR")
        .is_some_and(|vir| {
            report
                .races
                .at(vir.base)
                .iter()
                .any(|r| r.kind == RaceKind::WriteWrite)
        })
}

/// A run's races as (kind, address, process pair, epoch).  Water's interval
/// *indexes* shift with the order its force locks happen to be handed
/// round, so `RaceReport::fingerprint`, which hashes them, differs between
/// runs of the same program; this identity does not.
fn race_identity(report: &RunReport) -> BTreeSet<(u8, u64, u16, u16, u64)> {
    report
        .races
        .reports()
        .iter()
        .map(|r| (r.kind as u8, r.addr.0, r.a.proc.0, r.b.proc.0, r.epoch))
        .collect()
}

pub fn water_paper(seed: u64, smoke: bool) -> AppWorkload {
    let base = if smoke {
        water::WaterParams::small()
    } else {
        water::WaterParams::paper()
    };
    let params = water::WaterParams {
        seed: mix(seed, 0),
        ..base
    };
    let want = std::sync::Arc::new(water::reference(&params));
    let run = move |on: bool| {
        let mut got = None;
        timed(|| {
            let (report, result) = water::run(testbed(on_off(on)), params);
            got = Some(result);
            Ok(report)
        })
        .check(|_| {
            let got = got.as_ref().expect("run returned a result");
            let far = got
                .positions
                .iter()
                .zip(&want.positions)
                .any(|(a, b)| (a - b).abs() > 1e-9);
            if far
                || (got.potential - want.potential).abs() > 1e-6
                || (got.kinetic - want.kinetic).abs() > 1e-6
            {
                return Err("result outside water::reference tolerance".into());
            }
            Ok(())
        })
    };
    // The first detection-on run fixes the race set every later run must
    // reproduce.
    let first = race_identity(&run(true).result.expect("water warm-up run"));
    let run_off = run.clone();
    AppWorkload {
        on: Box::new(move |_, _| {
            run(true).check(|report| {
                if !vir_write_write(report) {
                    return Err("VIR write-write race missed".into());
                }
                if race_identity(report) != first {
                    return Err("race set changed between runs".into());
                }
                Ok(())
            })
        }),
        off: Box::new(move |_| run_off(false).check(no_races)),
    }
}

// --- lock_storm and reliable_recover -----------------------------------------

/// Disjoint-lock intervals per process per epoch.
pub const LOCK_OPS: u64 = 96;
/// Words in each process's private stripe (one 4 KB page).
const STRIPE_WORDS: u64 = 512;

/// The lock-heavy program: every interval is concurrent with every remote
/// one, and one unsynchronised clash word per epoch races between all
/// process pairs.  No sleep, no modelled compute: wall time is the DSM's.
fn storm_body(h: &ProcHandle, arr: GAddr, epochs: u64, log: Option<&ProcLog>) {
    let me = h.proc() as u64;
    // What `ProcHandle::epochs` does, spelled out so the barrier can carry
    // its own span: phases before the restored cut are skipped.
    let resume = h.resume_epoch();
    for e in resume..epochs {
        for k in 0..LOCK_OPS {
            let lock = (me * LOCK_OPS + k) as u32 + 1;
            maybe_span(log, "lock", || h.lock(lock));
            maybe_span(log, "access", || {
                h.write(
                    arr.word(me * STRIPE_WORDS + (e * LOCK_OPS + k) % STRIPE_WORDS),
                    k,
                );
                if k == 0 {
                    h.write(arr.word(NODES as u64 * STRIPE_WORDS + e), me);
                }
            });
            maybe_span(log, "unlock", || h.unlock(lock));
        }
        maybe_span(log, "barrier", || h.barrier());
    }
}

pub fn storm_run(cfg: DsmConfig, epochs: u64, logs: Option<&[ProcLog]>) -> Ran {
    assert!(epochs <= STRIPE_WORDS, "clash words fit one page");
    timed(|| {
        Cluster::run(
            cfg,
            |alloc| {
                alloc
                    .alloc_page_aligned("storm", (NODES as u64 + 1) * STRIPE_WORDS * 8)
                    .expect("storm segment fits")
            },
            |h, &arr| storm_body(h, arr, epochs, logs.map(|l| &l[h.proc()])),
        )
        .map_err(|e| format!("run failed: {}", e.error))
    })
}

/// Exactly one write-write report per process pair per epoch, all on that
/// epoch's clash word.
fn storm_races(report: &RunReport, epochs: u64) -> Result<(), String> {
    let pairs = (NODES * (NODES - 1) / 2) as u64;
    let want = epochs * pairs;
    let clash_base = report.segments.segments()[0]
        .base
        .word(NODES as u64 * STRIPE_WORDS);
    let ok = report.races.reports().iter().all(|r| {
        r.kind == RaceKind::WriteWrite && r.addr == clash_base.word(r.epoch) && r.epoch < epochs
    });
    if report.races.len() as u64 == want && ok {
        Ok(())
    } else {
        Err(format!(
            "{} reports, want {want} write-write on the clash words",
            report.races.len()
        ))
    }
}

pub fn storm_epochs(smoke: bool) -> u64 {
    if smoke {
        4
    } else {
        48
    }
}

pub fn lock_storm(smoke: bool) -> AppWorkload {
    let epochs = storm_epochs(smoke);
    AppWorkload {
        on: Box::new(move |_, logs| {
            storm_run(DsmConfig::new(NODES), epochs, logs).check(|r| storm_races(r, epochs))
        }),
        off: Box::new(move |_| {
            let mut cfg = DsmConfig::new(NODES);
            cfg.detect = DetectConfig::off();
            storm_run(cfg, epochs, None).check(no_races)
        }),
    }
}

/// The service's own wire tuning: scripted faults are diagnosed in
/// milliseconds, not deployment-default timeouts.
pub fn tight_wire(plan: FaultPlan) -> FaultPlan {
    plan.with_rto(Duration::from_millis(2), Duration::from_millis(16))
        .with_max_retransmits(8)
}

pub fn recover_epochs(smoke: bool) -> u64 {
    if smoke {
        6
    } else {
        12
    }
}

/// The storm over a lossy, corrupting wire with checkpoints on; `kill`
/// adds the scripted death of node 2 at its 5th barrier arrival.
pub fn recover_cfg(wire_seed: u64, kill: bool) -> DsmConfig {
    let mut plan = tight_wire(FaultPlan::new(0.05, wire_seed).with_corruption(0.05));
    if kill {
        plan = plan.with_kill_at_phase(ProcId(2), ProtocolPhase::BarrierCollect, 5);
    }
    let mut cfg = DsmConfig::new(NODES);
    cfg.net_loss = Some(plan);
    cfg.recovery = RecoveryPolicy::Recover { max_attempts: 3 };
    cfg
}

pub fn reliable_recover(seed: u64, smoke: bool) -> AppWorkload {
    let epochs = recover_epochs(smoke);
    let clean = storm_run(DsmConfig::new(NODES), epochs, None)
        .check(|r| storm_races(r, epochs))
        .result
        .expect("clean-link reference run");
    let want: BTreeSet<u64> = clean.races.distinct_fingerprints();
    AppWorkload {
        on: Box::new(move |i, logs| {
            storm_run(recover_cfg(mix(seed, i), true), epochs, logs).check(|r| {
                storm_races(r, epochs)?;
                let rel = r.reliability.as_ref().ok_or("no reliability stats")?;
                if r.races.distinct_fingerprints() != want {
                    return Err("fingerprints differ from the clean-link run".into());
                }
                if r.recovery.recoveries < 1 {
                    return Err("the scripted kill never landed".into());
                }
                if rel.decode_errors != 0 {
                    return Err(format!("{} decode errors", rel.decode_errors));
                }
                Ok(())
            })
        }),
        off: Box::new(move |_| {
            storm_run(DsmConfig::new(NODES), epochs, None).check(|r| storm_races(r, epochs))
        }),
    }
}

pub fn build(name: &str, seed: u64, smoke: bool) -> Option<AppWorkload> {
    Some(match name {
        "sor_paper" => sor_paper(smoke),
        "water_paper" => water_paper(seed, smoke),
        "lock_storm" => lock_storm(smoke),
        "reliable_recover" => reliable_recover(seed, smoke),
        _ => return None,
    })
}
