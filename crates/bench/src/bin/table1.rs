//! Regenerates **Table 1: Application Characteristics**.
//!
//! Columns: input set, synchronization kinds, shared-memory size (KB),
//! intervals per barrier, and the 8-processor slowdown of race detection
//! versus unmodified CVM.

use cvm_apps::App;
use cvm_bench::{Measurement, PAPER_PROCS};

fn main() {
    println!("Table 1. Application Characteristics ({PAPER_PROCS} processors)");
    cvm_bench::rule(92);
    println!(
        "{:<8}{:<20}{:<16}{:>12}{:>22}{:>12}",
        "", "Input Set", "Synchronization", "Memory (KB)", "Intervals/Barrier", "Slowdown"
    );
    cvm_bench::rule(92);
    let paper: [(App, f64, f64, f64); 4] = [
        (App::Fft, 3088.0, 2.0, 2.08),
        (App::Sor, 8208.0, 2.0, 1.83),
        (App::Tsp, 792.0, 177.0, 2.51),
        (App::Water, 152.0, 46.0, 2.31),
    ];
    for (app, p_mem, p_ipb, p_slow) in paper {
        let m = Measurement::take(app, PAPER_PROCS);
        let mem_kb = m.on.segments.used_bytes() as f64 / 1024.0;
        let ipb = m.on.intervals_per_barrier();
        println!(
            "{:<8}{:<20}{:<16}{:>12.0}{:>22.1}{:>12.2}",
            app.name(),
            app.input_set(),
            app.sync_kinds(),
            mem_kb,
            ipb,
            m.slowdown()
        );
        println!(
            "{:<8}{:<20}{:<16}{:>12.0}{:>22.1}{:>12.2}   (paper)",
            "", "", "", p_mem, p_ipb, p_slow
        );
    }
    cvm_bench::rule(92);
    println!("Slowdown = virtual time with detection / virtual time of unmodified CVM.");
}
