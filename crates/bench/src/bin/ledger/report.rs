//! What a pass produces, and the three ways it leaves the process: lines a
//! person reads, the one-line JSON the driver reads, and the results file
//! `--compare` reads.

use cvm_service::json::Value;

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, percentile, quartiles, spread};

/// One reported number.  `n` samples stand behind it (1 for a count).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub p95: Option<f64>,
}

/// Median and p95 of a sample set (a lone sample is a plain value).
pub fn sampled(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        value: median(xs),
        n: xs.len(),
        p95: (xs.len() > 1).then(|| percentile(xs, 95.0)),
    }
}

/// One pass of one workload: traced passes carry the per-layer metrics,
/// untraced ones the end-to-end metrics.
pub struct Pass {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
}

impl Pass {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn print(&self) {
        let pass = if self.traced { "traced" } else { "untraced" };
        println!(
            "# {} seed {} ({pass}): {} ops attempted, {} failed",
            self.workload, self.seed, self.attempted, self.failed
        );
        if let Some(why) = &self.first_failure {
            println!("# first failure: {why}");
        }
        for m in &self.metrics {
            let p95 = m.p95.map_or(String::new(), |p| format!("  p95 {p:.6}"));
            println!(
                "{:<22} {:<36} {:>16.6} {:<6} n={}{p95}",
                self.workload, m.name, m.value, m.unit, m.n
            );
        }
    }

    /// The pass as the results file keeps it: the result line's content
    /// plus workload, seed, sample counts and p95s.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::obj([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                    ("samples", Value::Int(m.n as i64)),
                    ("p95", m.p95.map_or(Value::Null, Value::Float)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::obj([
            ("workload", Value::Str(self.workload.into())),
            ("seed", Value::Int(self.seed as i64)),
            ("traced", Value::Bool(self.traced)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric a `{value, unit}`.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::obj([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// `BENCHMARK.json`, generated from the tables (`--benchmark-json`).
pub fn benchmark_json(run_seconds: u64) -> Value {
    let arr = Value::Arr;
    let s = |text: &str| Value::Str(text.into());
    Value::obj([
        (
            "command",
            arr([
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "crates/bench/src/bin/ledger/Cargo.toml",
                "--",
            ]
            .map(s)
            .to_vec()),
        ),
        ("paths", arr(vec![s("crates/bench/src/bin/ledger")])),
        ("run_seconds", Value::Int(run_seconds as i64)),
        (
            "workloads",
            arr(WORKLOADS
                .iter()
                .map(|w| Value::obj([("name", s(w.name)), ("why", s(w.why))]))
                .collect()),
        ),
        (
            "end_to_end",
            arr(END_TO_END
                .iter()
                .map(|m| {
                    Value::obj([
                        ("name", s(m.name)),
                        ("unit", s(m.unit)),
                        ("better", s(m.better.name())),
                        ("bound", Value::Float(m.bound)),
                    ])
                })
                .collect()),
        ),
        (
            "per_layer",
            arr(PER_LAYER
                .iter()
                .map(|m| {
                    Value::obj([
                        ("name", s(m.name)),
                        ("unit", s(m.unit)),
                        ("better", s(m.better.name())),
                    ])
                })
                .collect()),
        ),
    ])
}

/// The results file: the tables in full (reasons, parameters, bounds,
/// layers, predicted moves), the box, and every pass's numbers (`runs`,
/// each a [`Pass::to_json`]).
pub fn results_json(seed: u64, seconds: f64, nproc: usize, runs: &[Value]) -> Value {
    let s = |text: &str| Value::Str(text.into());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let runs = runs
                .iter()
                .filter(|run| run.get("workload").and_then(Value::as_str) == Some(w.name))
                .cloned()
                .collect();
            Value::obj([
                ("name", s(w.name)),
                ("why", s(w.why)),
                ("params", s(w.params)),
                ("tail_percentile", Value::Float(w.tail_percentile)),
                ("runs", Value::Arr(runs)),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::obj([
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.name())),
                ("bound", Value::Float(m.bound)),
                ("what", s(m.what)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let moves = m
                .moves
                .iter()
                .map(|(metric, workload)| {
                    Value::obj([("metric", s(metric)), ("workload", s(workload))])
                })
                .collect();
            Value::obj([
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.name())),
                ("layer", s(m.layer)),
                ("moves", Value::Arr(moves)),
            ])
        })
        .collect();
    Value::obj([
        ("seed", Value::Int(seed as i64)),
        ("seconds", Value::Float(seconds)),
        ("nproc", Value::Int(nproc as i64)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

/// Untraced values of one end-to-end metric on one workload, from a
/// results file.
fn values_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let Some(workloads) = doc.get("workloads").and_then(Value::as_arr) else {
        return Vec::new();
    };
    workloads
        .iter()
        .filter(|w| w.get("name").and_then(Value::as_str) == Some(workload))
        .filter_map(|w| w.get("runs").and_then(Value::as_arr))
        .flatten()
        .filter(|run| run.get("traced").and_then(Value::as_bool) == Some(false))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judges `new` against `old`: *regressed* when the median is worse by
/// more than `bound`; *unresolved* when either set's spread exceeds the
/// bound, unless every new run reads better than every old one; else
/// *unchanged*.
pub fn judge(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (base, now) = (median(old), median(new));
    let worse_by = match better {
        Better::Lower => (now - base) / base,
        Better::Higher => (base - now) / base,
    };
    let all_better = match better {
        Better::Lower => percentile(new, 100.0) < percentile(old, 0.0),
        Better::Higher => percentile(new, 0.0) > percentile(old, 100.0),
    };
    if spread(old).max(spread(new)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Prints the noise-aware diff of two results files, one workload per row
/// group, every ratio with its base.  Returns how many pairings regressed.
pub fn compare(old: &Value, new: &Value) -> usize {
    let mut regressed = 0;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "old median", "new median", "new/old", "old spr", "new spr", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (
                values_of(old, w.name, m.name),
                values_of(new, w.name, m.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = judge(&a, &b, m.better, m.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<20} {:<16} {:>14.4} {:>14.4} {:>8.4} {:>7.4} {:>7.4} {:>6.2}  {}",
                w.name,
                m.name,
                median(&a),
                median(&b),
                median(&b) / median(&a),
                spread(&a),
                spread(&b),
                m.bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    regressed
}

/// Quartile summary of a results file's untraced runs, against a third of
/// each bound: the steadiness the benchmark is held to.
pub fn spread_table(doc: &Value) {
    println!("# spread over runs: IQR / median, against a third of the bound");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let xs = values_of(doc, w.name, m.name);
            let (q1, q3) = quartiles(&xs);
            println!(
                "{:<20} {:<16} n={:<3} median {:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  spread {:.4}  bound/3 {:.4}",
                w.name,
                m.name,
                xs.len(),
                median(&xs),
                spread(&xs),
                m.bound / 3.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_service::json::parse;

    fn pass() -> Pass {
        Pass {
            workload: "lock_storm",
            seed: 9,
            traced: false,
            attempted: 12,
            failed: 0,
            first_failure: None,
            metrics: vec![
                sampled("op_wall_ms", "ms", &[2.0, 1.0, 4.0]),
                sampled("setup_s", "s", &[0.25]),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = pass().result_line().to_string();
        assert!(!line.contains('\n'));
        let back = parse(&line).expect("valid JSON");
        let Value::Obj(top) = &back else {
            panic!("object expected")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Value::as_u64), Some(12));
        let wall = back.get("metrics").and_then(|m| m.get("op_wall_ms"));
        assert_eq!(
            wall.and_then(|m| m.get("value")).and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            wall.and_then(|m| m.get("unit")).and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn results_file_round_trips_into_compare() {
        let doc =
            parse(&results_json(9, 1.0, 2, &[pass().to_json(), pass().to_json()]).to_string())
                .expect("JSON");
        assert_eq!(values_of(&doc, "lock_storm", "op_wall_ms"), [2.0, 2.0]);
        assert!(values_of(&doc, "sor_paper", "op_wall_ms").is_empty());
        assert_eq!(compare(&doc, &doc), 0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [80.0, 100.0, 120.0, 140.0, 60.0];
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&slower, &steady, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Noisy, but every new run beats every old one: resolved.
        let fast = [10.0, 30.0, 20.0, 40.0, 15.0];
        assert_eq!(
            judge(&steady, &fast, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn benchmark_json_is_the_committed_file() {
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(text) = here
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
        else {
            panic!("BENCHMARK.json not found above {}", here.display());
        };
        let committed = parse(&text).expect("BENCHMARK.json parses");
        let seconds = committed
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("run_seconds");
        assert_eq!(committed, benchmark_json(seconds));
    }
}
