//! Regenerates **Figure 3: Overhead Breakdown**.
//!
//! For each application, the overhead added by race detection relative to
//! the uninstrumented runtime, split into the paper's five categories:
//! CVM Mods, Proc Call, Access Check, Intervals, and Bitmaps.

use cvm_apps::App;
use cvm_bench::{Breakdown, PAPER_PROCS};
use cvm_dsm::OverheadCat;

fn main() {
    println!(
        "Figure 3. Overhead Breakdown ({PAPER_PROCS} processors, % of uninstrumented runtime)"
    );
    cvm_bench::rule(86);
    println!(
        "{:<8}{:>12}{:>12}{:>14}{:>12}{:>10}{:>12}",
        "", "CVM Mods", "Proc Call", "Access Check", "Intervals", "Bitmaps", "Total"
    );
    cvm_bench::rule(86);
    for app in App::ALL {
        let m = Breakdown::take(app, PAPER_PROCS);
        let bars = m.bars();
        let get = |cat: OverheadCat| -> f64 {
            bars.iter()
                .find(|(c, _)| *c == cat)
                .map_or(0.0, |(_, v)| *v)
        };
        println!(
            "{:<8}{:>12}{:>12}{:>14}{:>12}{:>10}{:>12}",
            app.name(),
            cvm_bench::pct(get(OverheadCat::CvmMods)),
            cvm_bench::pct(get(OverheadCat::ProcCall)),
            cvm_bench::pct(get(OverheadCat::AccessCheck)),
            cvm_bench::pct(get(OverheadCat::Intervals)),
            cvm_bench::pct(get(OverheadCat::Bitmaps)),
            cvm_bench::pct(m.total_overhead()),
        );
        // Text bar for the figure's visual shape.
        let width = (m.total_overhead() * 40.0).round() as usize;
        println!("{:<8}{}", "", "#".repeat(width.min(120)));
    }
    cvm_bench::rule(86);
    println!("Paper's shape: instrumentation (Proc Call + Access Check) ~68% of overhead;");
    println!("CVM Mods ~22%; Intervals and Bitmaps smallest; FFT total 108%, TSP highest.");
}
