//! Regenerates **Table 3: Dynamic Metrics**.
//!
//! Columns: fraction of intervals involved in at least one concurrent pair
//! with page overlap ("Intervals Used"), fraction of access bitmaps
//! retrieved ("Bitmaps Used"), the bandwidth overhead of read notices
//! ("Msg Ohead"), and the per-process rates of instrumented analysis calls
//! for shared vs private data.

use cvm_apps::App;
use cvm_bench::{run_app, PAPER_PROCS};

fn main() {
    println!("Table 3. Dynamic Metrics ({PAPER_PROCS} processors, detection on)");
    cvm_bench::rule(96);
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>24}{:>24}",
        "", "Intervals", "Bitmaps", "Msg", "Inst. Shared", "Inst. Private"
    );
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>24}{:>24}",
        "", "Used", "Used", "Ohead", "Accesses/s", "Accesses/s"
    );
    cvm_bench::rule(96);
    let paper: [(App, &str, &str, &str, u64, u64); 4] = [
        (App::Fft, "15%", "1%", "0.4%", 311_079, 924_226),
        (App::Sor, "0%", "0%", "1.6%", 483_310, 251_200),
        (App::Tsp, "93%", "13%", "1.3%", 737_159, 2_195_510),
        (App::Water, "13%", "11%", "48.3%", 145_095, 982_965),
    ];
    for (app, p_iu, p_bu, p_mo, p_s, p_p) in paper {
        let report = run_app(app, PAPER_PROCS, true);
        let (shared_rate, private_rate) = report.analysis_rates();
        println!(
            "{:<8}{:>12}{:>12}{:>12}{:>24.0}{:>24.0}",
            app.name(),
            cvm_bench::pct(report.det_stats.intervals_used_frac()),
            cvm_bench::pct(report.det_stats.bitmaps_used_frac()),
            cvm_bench::pct(report.net.read_notice_overhead()),
            shared_rate,
            private_rate,
        );
        println!(
            "{:<8}{:>12}{:>12}{:>12}   (vs sync traffic only)",
            "",
            "",
            "",
            cvm_bench::pct(report.net.read_notice_sync_overhead()),
        );
        println!(
            "{:<8}{:>12}{:>12}{:>12}{:>24}{:>24}   (paper)",
            "", p_iu, p_bu, p_mo, p_s, p_p
        );
    }
    cvm_bench::rule(96);
    println!("Rates are per process, over virtual (250 MHz Alpha) time.");
}
