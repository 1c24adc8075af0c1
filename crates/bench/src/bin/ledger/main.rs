//! `ledger`: the repository's benchmark.
//!
//! Six workloads, seven end-to-end metrics taken untraced, and a per-layer
//! wall-clock profile taken in a separate traced pass.  Every op's output
//! is checked; a wrong answer counts as a failed op and the process exits
//! non-zero.  See `README.md` beside this file.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, result line last
//! ledger --seed <n> [--seconds <s>] [--runs <k>] [--out <file>]     all six, both passes,
//!                                                                   a process per pass
//! ledger --smoke                                                    all six, cut to <= 1 s each
//! ledger --compare <old.json> <new.json>                            noise-aware diff
//! ledger --benchmark-json                                           regenerate BENCHMARK.json
//! ```

mod apps;
mod layers;
mod report;
mod run;
mod service;
mod spans;
mod spec;
mod stats;

use std::process::ExitCode;

use run::Opts;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    runs: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
    benchmark_json: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        runs: 1,
        out: None,
        compare: None,
        benchmark_json: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--out" => args.out = Some(value("a path")?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("two paths")?, value("two paths")?)),
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<cvm_service::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    cvm_service::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main(args: Args) -> Result<bool, String> {
    if args.benchmark_json {
        println!("{}", report::benchmark_json(RUN_SECONDS));
        return Ok(true);
    }
    if let Some((old, new)) = &args.compare {
        return Ok(report::compare(&read_json(old)?, &read_json(new)?) == 0);
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { RUN_SECONDS as f64 });
    // The driver's form: one workload, one pass, the result line last.
    if let Some(name) = &args.workload {
        let opts = Opts {
            seed: args.seed,
            seconds,
            smoke: args.smoke,
        };
        let pass = run::pass(name, opts, args.trace.unwrap_or(false))?;
        pass.print();
        if let Some(out) = &args.out {
            write_json(out, &pass.to_json())?;
        }
        println!("{}", pass.result_line());
        return Ok(pass.correct());
    }
    // The full ledger: every workload, untraced then traced, `runs` seeds,
    // each pass in a process of its own as the driver runs them.
    let mut runs = Vec::new();
    let mut correct = true;
    for seed in args.seed..args.seed + args.runs {
        for w in &spec::WORKLOADS {
            for traced in [false, true] {
                if args.trace.is_some_and(|only| only != traced) {
                    continue;
                }
                let (run, ok) = child_pass(w.name, seed, seconds, args.smoke, traced)?;
                correct &= ok;
                runs.push(run);
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = report::results_json(args.seed, seconds, nproc, &runs);
    if args.runs > 1 {
        report::spread_table(&doc);
    }
    if let Some(out) = &args.out {
        write_json(out, &doc)?;
        println!("# results written to {out}");
    }
    Ok(correct)
}

fn write_json(path: &str, doc: &cvm_service::json::Value) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
}

/// Runs one pass as a child process and returns what it wrote with `--out`
/// and whether it was correct.  A long-lived process drifts — heap and
/// resident set grow, later passes read up to 10 % slower — and
/// `peak_rss_mb` is a per-process mark.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
) -> Result<(cvm_service::json::Value, bool), String> {
    let dir = service::scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let out = dir.join(format!("pass-{}.json", std::process::id()));
    let out = out.to_str().ok_or("scratch path is not UTF-8")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", workload, "--out", out])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(smoke.then_some("--smoke"))
        .stderr(std::process::Stdio::inherit());
    let output = child.output().map_err(|e| e.to_string())?;
    // Everything but the result line, which the file repeats in full.
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    let run = read_json(out).map_err(|e| format!("{workload}: pass wrote no result ({e})"))?;
    std::fs::remove_file(out).ok();
    Ok((run, output.status.success()))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(real_main) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, traced: bool) -> report::Pass {
        let opts = Opts {
            seed: 7,
            seconds: 0.3,
            smoke: true,
        };
        let pass = run::pass(name, opts, traced).expect("pass runs");
        assert!(pass.correct(), "{name}: {:?}", pass.first_failure);
        assert!(pass.attempted >= 1);
        pass
    }

    /// Every workload, cut small, through the same code path and the same
    /// output checks as a full run.
    #[test]
    fn smoke_untraced_reports_every_end_to_end_metric() {
        for w in &spec::WORKLOADS {
            let pass = smoke(w.name, false);
            let names: Vec<_> = pass.metrics.iter().map(|m| m.name).collect();
            let want: Vec<_> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{}", w.name);
            for m in &pass.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    w.name,
                    m.name
                );
            }
        }
    }

    #[test]
    fn smoke_traced_reports_every_per_layer_metric() {
        for name in ["lock_storm", "service_tcp_durable"] {
            let pass = smoke(name, true);
            let names: Vec<_> = pass.metrics.iter().map(|m| m.name).collect();
            let want: Vec<_> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{name}");
            assert!(pass.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_sends_them() {
        let argv = "--workload lock_storm --seed 42 --seconds 10 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from)).expect("parses");
        assert_eq!(args.workload.as_deref(), Some("lock_storm"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, Some(10.0), Some(true))
        );
        assert!(parse_args(["--trace".to_string(), "2".to_string()].into_iter()).is_err());
        assert!(parse_args(["--frobnicate".to_string()].into_iter()).is_err());
    }
}
