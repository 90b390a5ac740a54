//! One workload, one process: set-up, the untraced measurement behind the
//! end-to-end metrics, and the checks that decide `correct`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::embedded::{self, p_us, Rep};
use crate::metrics::Values;
use crate::plans::{rehome, Homed, Logical, Spec, Transport, ADVANCE_EVERY, CHECKPOINT_EVERY};
use crate::stats::{highest_supported_tail, median};
use crate::tcp;

/// Abort a workload whose resident set passes this (hospital runs grow
/// superlinearly: 300k transactions reached 15.7 GB).
const RSS_GUARD_KB: u64 = 4 * 1024 * 1024;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Embedded repetitions a run makes at least.
const MIN_REPS: usize = 3;
/// Share of a TCP schedule discarded as warm-up.
pub const WARMUP_SHARE: f64 = 0.1;

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// `--quick`: a tenth of every count, one repetition, one set-up.
    pub quick: bool,
}

impl Options {
    pub fn scale_down(&self) -> usize {
        if self.quick {
            10
        } else {
            1
        }
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct RunResult {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not `correct`, if it is not.
    pub problems: Vec<String>,
    /// Free-form lines printed above the metrics (sample counts, policies).
    pub notes: Vec<String>,
}

/// Where a run may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory for one engine's WAL and page files.
pub struct Scratch {
    root: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    pub fn new() -> Self {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = out_dir().join(format!("scratch-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Scratch { root }
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Bytes of every regular file below the directory.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Watch this process's resident set from a detached thread and abort the
/// workload if it passes the guard.
pub fn spawn_rss_guard(workload: &'static str) {
    std::thread::spawn(move || loop {
        if proc_status_kb("VmRSS:").is_some_and(|kb| kb > RSS_GUARD_KB) {
            eprintln!("{workload}: resident set passed {RSS_GUARD_KB} kB; workload aborted");
            std::process::exit(3);
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// Plans on the workload's topology, and what making them cost.
pub struct Prepared {
    pub logical: Logical,
    pub homed: Homed,
    pub gen_s: f64,
    pub setup_s: f64,
}

/// Plan generation + schema + `Engine::new` (+ `serve` bind on TCP), timed
/// [`SETUPS`] times; the medians are `setup_s` and `load.gen_s`.
pub fn prepare(spec: &'static Spec, opts: &Options) -> Result<Prepared, String> {
    let mut gen = Vec::new();
    let mut total = Vec::new();
    let mut last = None;
    for _ in 0..if opts.quick { 1 } else { SETUPS } {
        let scratch = Scratch::new();
        let t0 = Instant::now();
        let logical = spec.generate(opts.seed, opts.seconds as f64, opts.scale_down());
        let homed = rehome(&logical, spec.topology());
        let t1 = Instant::now();
        let server = match spec.transport {
            Transport::Embedded => {
                drop(embedded::new_engine(
                    spec,
                    &homed,
                    scratch.path(),
                    ADVANCE_EVERY,
                ));
                None
            }
            Transport::Tcp => {
                Some(tcp::start_server(spec, &homed, scratch.path()).map_err(|e| e.to_string())?)
            }
        };
        let t2 = Instant::now();
        if let Some(server) = server {
            tcp::stop_server(server)?;
        }
        gen.push((t1 - t0).as_secs_f64());
        total.push((t2 - t0).as_secs_f64());
        last = Some((logical, homed));
    }
    let (logical, homed) = last.ok_or("no set-up ran")?;
    Ok(Prepared {
        logical,
        homed,
        gen_s: median(&gen),
        setup_s: median(&total),
    })
}

/// Note the highest tail percentile the sample supports beyond p99.
fn note_tail(notes: &mut Vec<String>, what: &str, sorted_ns: &[u64]) {
    match highest_supported_tail(sorted_ns) {
        Some((label, v)) if label != "p99" => notes.push(format!(
            "{what} {label} = {:.1} us (n = {}, not gated)",
            v as f64 / 1e3,
            sorted_ns.len()
        )),
        Some(_) => {}
        None => notes.push(format!(
            "{what}: only {} samples, p99 has fewer than ten beyond it",
            sorted_ns.len()
        )),
    }
}

/// Checks every embedded repetition must pass.
pub fn check_reps(reps: &[&Rep], problems: &mut Vec<String>) {
    if reps.iter().any(|r| r.fingerprint != reps[0].fingerprint) {
        problems.push("repetitions ended in different fingerprints".to_string());
    }
    if let Some(r) = reps.iter().find(|r| r.max_versions > 3) {
        problems.push(format!(
            "{} live versions of one item (P1 allows 3)",
            r.max_versions
        ));
    }
}

/// Repeat the fixed plan list on fresh engines until `seconds` have passed
/// (at least [`MIN_REPS`] times) and report the median repetition.
fn measure_embedded(spec: &Spec, prepared: &Prepared, opts: &Options, out: &mut RunResult) {
    let scratch = Scratch::new();
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let min_reps = if opts.quick { 1 } else { MIN_REPS };
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || Instant::now() < deadline {
        reps.push(embedded::run_rep(spec, &prepared.homed, scratch.path()));
        if opts.quick {
            break;
        }
    }
    check_reps(&reps.iter().collect::<Vec<_>>(), &mut out.problems);
    let over = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let n_update = reps[0].lat.update_ns.len() as u64;
    let n_read = reps[0].lat.read_ns.len() as u64;
    let v = &mut out.values;
    v.set(
        "update_p50_us",
        over(&|r| p_us(&r.lat.update_ns, 0.5)),
        n_update,
    );
    v.set("read_p50_us", over(&|r| p_us(&r.lat.read_ns, 0.5)), n_read);
    v.set(
        "committed_per_s",
        over(&Rep::committed_per_s),
        reps[0].committed,
    );
    out.attempted = reps.iter().map(|r| r.attempted).sum();
    out.failed = reps.iter().map(|r| r.failed).sum();
    out.notes.push(format!(
        "{} repetitions of {} transactions; metrics are the median repetition",
        reps.len(),
        reps[0].attempted
    ));
    out.notes.push(format!(
        "p99 (not gated): update {:.1} us, read {:.1} us",
        over(&|r| p_us(&r.lat.update_ns, 0.99)),
        over(&|r| p_us(&r.lat.read_ns, 0.99))
    ));
    note_tail(&mut out.notes, "update", &reps[0].lat.update_ns);
    note_tail(&mut out.notes, "read", &reps[0].lat.read_ns);
    if !reps[0].lat.nc_ns.is_empty() {
        out.notes.push(format!(
            "non-commuting p50 = {:.1} us (n = {})",
            over(&|r| p_us(&r.lat.nc_ns, 0.5)),
            reps[0].lat.nc_ns.len()
        ));
    }
}

/// One open-loop run at the workload's rate against a fresh server.
fn measure_tcp(
    spec: &Spec,
    prepared: &Prepared,
    opts: &Options,
    out: &mut RunResult,
) -> Result<(), String> {
    let warmup_us = (opts.seconds as f64 / opts.scale_down() as f64 * WARMUP_SHARE * 1e6) as u64;
    let segment = tcp::run_segment(spec, &prepared.homed, warmup_us, tcp::Drive::Library, None)?;
    let s = &segment.summary;
    let v = &mut out.values;
    let (n_update, n_read) = (s.lat.update_ns.len() as u64, s.lat.read_ns.len() as u64);
    v.set("update_p50_us", s.update_us.0, n_update);
    v.set("read_p50_us", s.read_us.0, n_read);
    v.set("committed_per_s", s.goodput_per_s, s.committed);
    out.attempted = s.attempted;
    out.failed = s.failed + segment.mismatches;
    out.notes.push(format!(
        "open loop {} tps over {} connections, first {:.0} % discarded as warm-up; \
         generator lateness p99 = {:.1} us; busy rejections = {}",
        spec.rate_tps,
        tcp::LANES,
        WARMUP_SHARE * 100.0,
        s.sched_lag_p99_us,
        segment.busy_rejections
    ));
    if spec.durable {
        out.notes.push(format!(
            "flush policy: WAL appended unsynced, fsync at each checkpoint every {} records per node; \
             {} bytes on disk after shutdown",
            CHECKPOINT_EVERY,
            segment.disk_bytes
        ));
    }
    out.notes.push(format!(
        "windowed p99 (not gated): update {:.1} us, read {:.1} us",
        s.update_us.1, s.read_us.1
    ));
    note_tail(&mut out.notes, "update", &s.lat.update_ns);
    note_tail(&mut out.notes, "read", &s.lat.read_ns);
    if !opts.quick && s.sched_lag_p99_us > tcp::MAX_SCHED_LAG_P99_US {
        out.problems.push(format!(
            "generator lateness p99 {:.0} us exceeds {} us",
            s.sched_lag_p99_us,
            tcp::MAX_SCHED_LAG_P99_US
        ));
    }
    if !opts.quick && s.goodput_per_s < 0.99 * s.offered_per_s {
        out.problems.push(format!(
            "achieved {:.0}/s is more than 1 % under the offered {:.0}/s",
            s.goodput_per_s, s.offered_per_s
        ));
    }
    Ok(())
}

/// The `--trace 0` run: every end-to-end metric of one workload.
pub fn run_untraced(spec: &'static Spec, opts: &Options) -> Result<RunResult, String> {
    let prepared = prepare(spec, opts)?;
    let mut out = RunResult::default();
    match spec.transport {
        Transport::Embedded => measure_embedded(spec, &prepared, opts, &mut out),
        Transport::Tcp => measure_tcp(spec, &prepared, opts, &mut out)?,
    }
    out.values.set("setup_s", prepared.setup_s, SETUPS as u64);
    out.values.set("peak_rss_mb", peak_rss_mb(), 1);
    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use crate::plans::WORKLOADS;

    #[test]
    fn a_quick_untraced_run_of_every_workload_is_correct_and_complete() {
        let opts = Options {
            seed: 1,
            seconds: 1,
            quick: true,
        };
        for spec in &WORKLOADS {
            let out = run_untraced(spec, &opts).unwrap();
            assert!(out.problems.is_empty(), "{}: {:?}", spec.name, out.problems);
            assert!(out.attempted > 0 && out.failed == 0, "{}", spec.name);
            for d in &END_TO_END {
                let value = out.values.get(d.name).unwrap_or(0.0);
                assert!(value > 0.0, "{} {} = {value}", spec.name, d.name);
            }
        }
    }
}
