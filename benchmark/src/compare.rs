//! The whole benchmark in one command, its result file, and `--compare`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plans::WORKLOADS;
use crate::run::out_dir;
use crate::stats::median;

/// `(name → (better-is-lower, bound))` of the end-to-end metrics, from the
/// `BENCHMARK.json` this binary was built beside.
fn bounds() -> BTreeMap<String, (bool, f64)> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists end_to_end")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()? == "lower",
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// One metric line a child printed: `workload metric value unit clock=… n=…`.
struct Line {
    metric: String,
    value: f64,
    samples: u64,
}

fn parse_line(workload: &str, line: &str) -> Option<Line> {
    let mut it = line.split_whitespace();
    if it.next()? != workload {
        return None;
    }
    let metric = it.next()?.to_string();
    let value = it.next()?.parse().ok()?;
    let samples = it.nth(2)?.strip_prefix("n=")?.parse().ok()?;
    Some(Line {
        metric,
        value,
        samples,
    })
}

/// What one child run said.
struct ChildRun {
    lines: Vec<Line>,
    notes: Vec<String>,
    correct: bool,
    attempted: f64,
    failed: f64,
}

/// Run one workload in a child process of its own, so `peak_rss_mb` is the
/// workload's and a runaway workload is the only thing its guard kills.
fn child(
    workload: &str,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let Ok(result) = Json::parse(last) else {
        return Err(format!(
            "{workload} ended {} without a result",
            output.status
        ));
    };
    Ok(ChildRun {
        lines: stdout
            .lines()
            .filter_map(|l| parse_line(workload, l))
            .collect(),
        notes: stdout
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(str::to_string)
            .collect(),
        correct: output.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&root.join(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&root.join(".git").join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn header(seed: u64, seconds: Option<u64>, runs: usize, quick: bool) -> Vec<(&'static str, Json)> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    vec![
        ("schema", Json::Num(1.0)),
        (
            "host",
            Json::object([
                ("cores", Json::Num(cores as f64)),
                (
                    "os",
                    Json::Str(format!("{} {}", std::env::consts::OS, release.trim())),
                ),
            ]),
        ),
        ("commit", Json::Str(git_commit())),
        ("seed", Json::Num(seed as f64)),
        (
            "seconds",
            seconds.map_or(Json::Null, |s| Json::Num(s as f64)),
        ),
        ("runs", Json::Num(runs as f64)),
        ("quick", Json::Bool(quick)),
    ]
}

/// Every workload: `runs` untraced runs and one traced run, each in a child
/// process. Prints every metric as `workload metric value unit` and writes
/// the set, with host, commit and seed, to one JSON file.
pub fn run_all(
    seed: u64,
    seconds: Option<u64>,
    runs: usize,
    quick: bool,
    out: Option<&str>,
) -> Result<bool, String> {
    let runs = if quick { 1 } else { runs };
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    for spec in &WORKLOADS {
        let mut correct = true;
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut by_metric: BTreeMap<String, (Vec<f64>, u64)> = BTreeMap::new();
        for r in 0..runs {
            let run = child(spec.name, seed, seconds, false, quick)?;
            if r == 0 {
                run.notes.iter().for_each(|n| println!("{n}"));
            }
            correct &= run.correct;
            attempted += run.attempted;
            failed += run.failed;
            for l in run.lines {
                let entry = by_metric.entry(l.metric).or_default();
                entry.0.push(l.value);
                entry.1 = l.samples;
            }
        }
        let mut end_to_end = BTreeMap::new();
        for d in &END_TO_END {
            let (values, samples) = by_metric.remove(d.name).unwrap_or_default();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let med = median(&values);
            println!(
                "{} {} {med} {} median of {} runs (min {lo} max {hi}) clock={} n={samples}",
                spec.name,
                d.name,
                d.unit,
                values.len(),
                d.clock.label()
            );
            end_to_end.insert(
                d.name.to_string(),
                Json::object([
                    ("unit", Json::Str(d.unit.to_string())),
                    ("clock", Json::Str(d.clock.label().to_string())),
                    ("samples", Json::Num(samples as f64)),
                    ("median", Json::Num(med)),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    (
                        "runs",
                        Json::Array(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            );
        }

        let traced = child(spec.name, seed, seconds, true, quick)?;
        traced.notes.iter().for_each(|n| println!("{n}"));
        correct &= traced.correct;
        let mut per_layer = BTreeMap::new();
        for l in traced.lines {
            let Some(d) = PER_LAYER.iter().find(|d| d.name == l.metric) else {
                continue;
            };
            println!(
                "{} {} {} {} clock={} n={}",
                spec.name,
                d.name,
                l.value,
                d.unit,
                d.clock.label(),
                l.samples
            );
            per_layer.insert(
                l.metric,
                Json::object([
                    ("unit", Json::Str(d.unit.to_string())),
                    ("clock", Json::Str(d.clock.label().to_string())),
                    ("samples", Json::Num(l.samples as f64)),
                    ("value", Json::Num(l.value)),
                ]),
            );
        }
        if !correct {
            println!("# {}: FAILED (see above)", spec.name);
        }
        all_correct &= correct;
        workloads.insert(
            spec.name.to_string(),
            Json::object([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::Object(end_to_end)),
                ("per_layer", Json::Object(per_layer)),
            ]),
        );
    }
    let mut doc = header(seed, seconds, runs, quick);
    doc.push(("workloads", Json::Object(workloads)));
    let path = out.map_or_else(
        || out_dir().join(format!("results-seed{seed}.json")),
        |p| Path::new(p).to_path_buf(),
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, Json::object(doc).render() + "\n").map_err(|e| e.to_string())?;
    println!("# results written to {}", path.display());
    Ok(all_correct)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    /// The baseline's own min–max spread exceeds the bound: no verdict.
    Unresolved,
    Regression,
}

/// Is `b` worse than baseline `a` (median, min, max) by more than `bound`,
/// as a share of `a`'s median?
fn verdict(a: (f64, f64, f64), b: f64, lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (med, lo, hi) = a;
    let worse_by = if lower_is_better { b - med } else { med - b } / med;
    let v = if (hi - lo) / med > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    };
    (v, worse_by)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn failed_ratio(workload: &Json) -> f64 {
    let get = |k| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// `--compare A B`: B against baseline A on every end-to-end metric of
/// every workload both hold. `Ok(false)` when B regressed anywhere.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds();
    let workloads = |doc: &Json| doc.get("workloads").and_then(Json::as_object).cloned();
    let (wa, wb) = (
        workloads(&a).ok_or(format!("{a_path}: no workloads"))?,
        workloads(&b).ok_or(format!("{b_path}: no workloads"))?,
    );
    let mut ok = true;
    for (name, a_w) in &wa {
        let Some(b_w) = wb.get(name) else {
            println!("{name}: missing from {b_path}");
            ok = false;
            continue;
        };
        if failed_ratio(b_w) > failed_ratio(a_w) {
            println!(
                "{name} failed_ratio rose {} -> {}: REGRESSION",
                failed_ratio(a_w),
                failed_ratio(b_w)
            );
            ok = false;
        }
        for (metric, &(lower, bound)) in &bounds {
            let field = |w: &Json, f: &str| w.get("end_to_end")?.get(metric)?.get(f)?.as_f64();
            let (Some(med), Some(lo), Some(hi), Some(b_med)) = (
                field(a_w, "median"),
                field(a_w, "min"),
                field(a_w, "max"),
                field(b_w, "median"),
            ) else {
                println!("{name} {metric}: missing");
                ok = false;
                continue;
            };
            let (v, worse_by) = verdict((med, lo, hi), b_med, lower, bound);
            let word = match v {
                Verdict::Within => "within bound",
                Verdict::Unresolved => "unresolved (baseline spread exceeds the bound)",
                Verdict::Regression => {
                    ok = false;
                    "REGRESSION"
                }
            };
            println!(
                "{name} {metric}: {med} -> {b_med} ({:+.1} % worse, bound {:.0} %): {word}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound, tight baseline.
        assert_eq!(
            verdict((100.0, 98.0, 102.0), 109.0, true, 0.1).0,
            Verdict::Within
        );
        assert_eq!(
            verdict((100.0, 98.0, 102.0), 111.0, true, 0.1).0,
            Verdict::Regression
        );
        assert_eq!(
            verdict((100.0, 98.0, 102.0), 50.0, true, 0.1).0,
            Verdict::Within
        );
        // Higher is better.
        assert_eq!(
            verdict((100.0, 98.0, 102.0), 89.0, false, 0.1).0,
            Verdict::Regression
        );
        assert_eq!(
            verdict((100.0, 98.0, 102.0), 120.0, false, 0.1).0,
            Verdict::Within
        );
        // A baseline that wanders by more than the bound decides nothing.
        assert_eq!(
            verdict((100.0, 90.0, 105.0), 130.0, true, 0.1).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn metric_lines_parse() {
        let l = parse_line("w", "w update_p50_us 12.5 us clock=wall n=42").unwrap();
        assert_eq!(
            (l.metric.as_str(), l.value, l.samples),
            ("update_p50_us", 12.5, 42)
        );
        assert!(parse_line("w", "# w: note").is_none());
        assert!(parse_line("w", "other update_p50_us 1 us clock=wall n=1").is_none());
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let b = bounds();
        for d in &END_TO_END {
            let (_, bound) = b[d.name];
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
    }
}
