//! Regenerates **Figure 4: Slowdown Factor versus Number of Processors**.
//!
//! Slowdown *decreases* with processor count in the paper: interval and
//! bitmap comparison are serialized at the master (constant observable
//! cost), while instrumentation cost parallelizes with the computation.

use cvm_apps::App;
use cvm_bench::Measurement;

fn main() {
    let procs = [1usize, 2, 4, 8];
    println!("Figure 4. Slowdown Factor versus Number of Processors");
    cvm_bench::rule(54);
    print!("{:<8}", "");
    for p in procs {
        print!("{:>10}", format!("{p} proc"));
    }
    println!();
    cvm_bench::rule(54);
    for app in App::ALL {
        print!("{:<8}", app.name());
        for p in procs {
            let m = Measurement::take(app, p);
            print!("{:>10.2}", m.slowdown());
        }
        println!();
    }
    cvm_bench::rule(54);
    println!("Paper's shape: slowdown decreases (or stays flat) as processors increase.");
}
