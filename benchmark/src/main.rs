//! The repository's one benchmark.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and ends its standard output with one JSON object: the
//!   end-to-end metrics untraced, the per-layer metrics traced.
//! * with no `--workload`, every workload runs in a child process of its
//!   own (`--runs` times untraced, once traced), every metric is printed as
//!   `workload metric value unit`, and the set is written to
//!   `benchmark/out/results-seed<N>.json`.
//! * `--compare A.json B.json` checks B against A with the bounds of
//!   `BENCHMARK.json`.

mod compare;
mod embedded;
mod json;
mod layers;
mod metrics;
mod oracle;
mod plans;
mod run;
mod stats;
mod tcp;
mod trace;

use std::process::ExitCode;

use json::Json;
use metrics::{Def, END_TO_END, PER_LAYER};
use run::{Options, RunResult};

const USAGE: &str = "usage: threev-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--runs N] [--quick] [--out FILE] | --compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    runs: usize,
    quick: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        runs: 3,
        quick: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("a path")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.runs == 0 || args.seconds == Some(0) {
        return Err("--runs and --seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Print one workload's metrics as `workload metric value unit …` lines and
/// end with the result object.
fn report(workload: &str, defs: &[Def], result: &RunResult) -> bool {
    for note in &result.notes {
        println!("# {workload}: {note}");
    }
    for p in &result.problems {
        println!("# {workload}: FAILED: {p}");
    }
    let mut metrics = std::collections::BTreeMap::new();
    for d in defs {
        let (value, samples) = result.values.get_or_zero(d.name);
        println!(
            "{workload} {} {value} {} clock={} n={samples}",
            d.name,
            d.unit,
            d.clock.label()
        );
        metrics.insert(
            d.name.to_string(),
            Json::object([
                ("value", Json::Num(value)),
                ("unit", Json::Str(d.unit.to_string())),
            ]),
        );
    }
    let correct = result.problems.is_empty();
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{}", line.render());
    correct
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = plans::find(name).ok_or_else(|| {
        let names: Vec<&str> = plans::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; choose from {}", names.join(", "))
    })?;
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 1 } else { 10 }),
        quick: args.quick,
    };
    run::spawn_rss_guard(spec.name);
    let (defs, result) = if args.trace {
        (&PER_LAYER[..], layers::run_traced(spec, &opts)?)
    } else {
        (&END_TO_END[..], run::run_untraced(spec, &opts)?)
    };
    Ok(report(spec.name, defs, &result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        compare::run_all(
            args.seed,
            args.seconds,
            args.runs,
            args.quick,
            args.out.as_deref(),
        )
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
