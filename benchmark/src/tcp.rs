//! TCP runs: an in-process `threev_server::serve` on loopback, driven open
//! loop by two blocking sender lanes (`nproc` = 2).
//!
//! Each job is due at `epoch + at_us`; a lane sleeps until then, sends, and
//! blocks for the reply. Latency is timed from the *scheduled* instant, so
//! the wait a stall imposes on the lane's later requests is counted — less
//! the generator's own lateness: `thread::sleep` returns ~60 us late here
//! (timer slack plus the wake-up), which is the harness's doing and half of
//! a round trip. That lateness — how long after both the due time and the
//! lane becoming free the send actually started — is reported separately
//! and bounds the run's validity. (Spinning up to the due time instead was
//! tried: at 10 000 tps the two spinning lanes take both cores from the
//! server and p50 rises from 125 to 170 us.)

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use threev_model::{TxnKind, TxnPlan};
use threev_server::proto::{read_frame, write_frame, ServerStats};
use threev_server::{
    serve, Client, ClientError, Request, Response, ServerConfig, ServerHandle, PROTOCOL_VERSION,
};

use crate::embedded::{new_engine, KindLatencies};
use crate::oracle::Oracle;
use crate::plans::{Homed, Job, Spec, ADVANCE_EVERY};
use crate::run::Scratch;
use crate::stats::{percentile, windowed_percentile};
use crate::trace::{Span, Tracer};

/// Connections, and sender threads, of every TCP run.
pub const LANES: usize = 2;
/// A run whose generator lateness p99 exceeds this is invalid.
pub const MAX_SCHED_LAG_P99_US: f64 = 1000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    Aborted,
    Busy,
    Error,
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub job: u32,
    pub kind: TxnKind,
    pub at_us: u64,
    /// Round trip plus the time the job waited for its lane past its
    /// scheduled instant.
    pub latency_ns: u64,
    /// How long after (scheduled instant, lane free) the send started: the
    /// generator's own lateness, kept out of `latency_ns`.
    pub lateness_ns: u64,
    pub outcome: Outcome,
}

pub fn start_server(spec: &Spec, homed: &Homed, scratch: &Path) -> std::io::Result<ServerHandle> {
    let engine = new_engine(spec, homed, scratch, ADVANCE_EVERY);
    serve(engine, ServerConfig::default())
}

/// Drain, run the final advancement (paged backends checkpoint) and join.
pub fn stop_server(handle: ServerHandle) -> Result<(), String> {
    handle.request_shutdown();
    handle.join().map_err(|e| e.to_string())
}

/// The traced stand-in for `Client`: the same frames through the public
/// codec and framing functions, with a span around each step.
struct ThinClient {
    stream: TcpStream,
}

impl ThinClient {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut c = ThinClient { stream };
        let hello = Request::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        }
        .encode()
        .map_err(|e| e.to_string())?;
        write_frame(&mut c.stream, &hello).map_err(|e| e.to_string())?;
        match read_frame(&mut c.stream).map_err(|e| e.to_string())? {
            Some((kind, payload))
                if matches!(
                    Response::decode(kind, &payload),
                    Ok(Response::HelloOk { .. })
                ) =>
            {
                Ok(c)
            }
            _ => Err("server refused Hello".to_string()),
        }
    }

    /// One submit round trip, recording `proto.encode`, `server.rtt` and
    /// `proto.decode` under `parent`.
    fn submit(
        &mut self,
        plan: &TxnPlan,
        tracer: &mut Tracer,
        parent: u32,
        seq: u32,
    ) -> Result<Response, String> {
        let t0 = tracer.now_ns();
        let frame = Request::Submit { plan: plan.clone() }
            .encode()
            .map_err(|e| e.to_string())?;
        let t1 = tracer.now_ns();
        write_frame(&mut self.stream, &frame).map_err(|e| e.to_string())?;
        let (kind, payload) = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let t2 = tracer.now_ns();
        let resp = Response::decode(kind, &payload).map_err(|e| e.to_string())?;
        let t3 = tracer.now_ns();
        tracer.push("proto.encode", t0, t1, Some(parent), seq);
        tracer.push("server.rtt", t1, t2, Some(parent), seq);
        tracer.push("proto.decode", t2, t3, Some(parent), seq);
        Ok(resp)
    }
}

/// What a lane sends for each job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// The job's plan through the shipped `Client` (untraced runs).
    Library,
    /// The job's plan through [`ThinClient`], with spans.
    Traced,
    /// A `Stats` request in the job's place: socket, worker, queue, engine
    /// hop and reply with no engine work, on the workload's own schedule.
    Noop,
}

enum Conn {
    Library(Client),
    Traced(ThinClient, Tracer),
    Noop(Client),
}

fn lane(
    addr: SocketAddr,
    epoch: Instant,
    jobs: &[Job],
    lane: usize,
    drive: Drive,
) -> Result<(Vec<Sample>, Vec<Span>), String> {
    let library = || Client::connect(addr).map_err(|e| e.to_string());
    let mut conn = match drive {
        Drive::Library => Conn::Library(library()?),
        Drive::Traced => Conn::Traced(ThinClient::connect(addr)?, Tracer::new(epoch)),
        Drive::Noop => Conn::Noop(library()?),
    };
    let mut samples = Vec::with_capacity(jobs.len() / LANES + 1);
    let mut lane_free = Instant::now();
    for (i, job) in jobs.iter().enumerate().skip(lane).step_by(LANES) {
        let due = epoch + Duration::from_micros(job.at_us);
        // The lane serves its jobs in order: this one starts when it is due
        // and the lane is free, whichever is later.
        let start = due.max(lane_free);
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
        let send = Instant::now();
        let outcome = match &mut conn {
            Conn::Library(client) => match client.submit(&job.plan) {
                Ok(o) if o.committed => Outcome::Committed,
                Ok(_) => Outcome::Aborted,
                Err(ClientError::Busy) => Outcome::Busy,
                Err(ClientError::Io(e)) => {
                    return Err(format!("lane {lane} lost its connection: {e}"))
                }
                Err(_) => Outcome::Error,
            },
            Conn::Noop(client) => match client.stats() {
                Ok(_) => Outcome::Committed,
                Err(e) => return Err(format!("lane {lane}: no-op failed: {e}")),
            },
            Conn::Traced(client, tracer) => {
                let seq = i as u32;
                // The root span runs from the scheduled instant; its end is
                // patched once the reply is in.
                let due_ns = job.at_us * 1000;
                let root = tracer.push("txn", due_ns, due_ns, None, seq);
                let send_ns = tracer.now_ns();
                tracer.push("load.wait", due_ns.min(send_ns), send_ns, Some(root), seq);
                let outcome = match client.submit(&job.plan, tracer, root, seq)? {
                    Response::TxnDone {
                        committed: true, ..
                    } => Outcome::Committed,
                    Response::TxnDone { .. } => Outcome::Aborted,
                    Response::Busy => Outcome::Busy,
                    _ => Outcome::Error,
                };
                tracer.spans[root as usize].end_ns = tracer.now_ns();
                outcome
            }
        };
        let done = Instant::now();
        samples.push(Sample {
            job: i as u32,
            kind: job.plan.kind,
            at_us: job.at_us,
            latency_ns: ((done - send) + (start - due)).as_nanos() as u64,
            lateness_ns: send.saturating_duration_since(start).as_nanos() as u64,
            outcome,
        });
        lane_free = done;
    }
    let spans = match conn {
        Conn::Library(_) | Conn::Noop(_) => Vec::new(),
        Conn::Traced(_, tracer) => tracer.spans,
    };
    Ok((samples, spans))
}

/// Replay `jobs` open loop over [`LANES`] connections. Samples come back in
/// job order; spans (traced runs only) are merged into one list.
pub fn run_open_loop(
    addr: SocketAddr,
    jobs: &[Job],
    drive: Drive,
) -> Result<(Vec<Sample>, Vec<Span>), String> {
    // A short runway so both lanes are connected before the first job is due.
    let epoch = Instant::now() + Duration::from_millis(100);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|l| s.spawn(move || lane(addr, epoch, jobs, l, drive)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("sender lane panicked".to_string()))
            })
            .collect()
    });
    let mut samples = Vec::with_capacity(jobs.len());
    let mut spans: Vec<Span> = Vec::new();
    for r in results {
        let (s, lane_spans) = r?;
        samples.extend(s);
        let base = spans.len() as u32;
        spans.extend(lane_spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
    }
    samples.sort_by_key(|s| s.job);
    Ok((samples, spans))
}

/// What the samples after the warm-up say.
pub struct Summary {
    /// Sorted ascending.
    pub lat: KindLatencies,
    /// Windowed (see `stats::windowed_percentile`) p50 and p99, in us.
    pub update_us: (f64, f64),
    pub read_us: (f64, f64),
    pub sched_lag_p99_us: f64,
    pub attempted: u64,
    pub committed: u64,
    /// Aborted + `Busy` + errors (oracle mismatches are added by the caller).
    pub failed: u64,
    /// Committed transactions scheduled after the warm-up, per second of
    /// the schedule they span.
    pub goodput_per_s: f64,
    pub offered_per_s: f64,
    /// Median update latency of the first and of the last quarter of the
    /// measured window: a backlog that grows shows as the second
    /// outrunning the first.
    pub first_quarter_p50_us: f64,
    pub last_quarter_p50_us: f64,
}

pub fn summarize(samples: &[Sample], warmup_us: u64) -> Summary {
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.at_us >= warmup_us).collect();
    let mut lat = KindLatencies::default();
    let mut lag: Vec<u64> = Vec::with_capacity(measured.len());
    let mut committed = 0;
    for s in &measured {
        lag.push(s.lateness_ns);
        if s.outcome == Outcome::Committed {
            committed += 1;
            match s.kind {
                TxnKind::Commuting => lat.update_ns.push(s.latency_ns),
                TxnKind::ReadOnly => lat.read_ns.push(s.latency_ns),
                TxnKind::NonCommuting => lat.nc_ns.push(s.latency_ns),
            }
        }
    }
    let windowed = |in_order: &[u64]| {
        (
            windowed_percentile(in_order, 0.5) / 1e3,
            windowed_percentile(in_order, 0.99) / 1e3,
        )
    };
    let (update_us, read_us) = (windowed(&lat.update_ns), windowed(&lat.read_ns));
    lat.sort();
    lag.sort_unstable();
    let quarter_p50 = |part: &[&Sample]| {
        let mut v: Vec<u64> = part
            .iter()
            .filter(|s| s.kind == TxnKind::Commuting && s.outcome == Outcome::Committed)
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        percentile(&v, 0.5) as f64 / 1e3
    };
    let q = measured.len() / 4;
    let span_s = match (measured.first(), measured.last()) {
        (Some(a), Some(b)) if b.at_us > a.at_us => (b.at_us - a.at_us) as f64 / 1e6,
        _ => f64::NAN,
    };
    Summary {
        update_us,
        read_us,
        sched_lag_p99_us: percentile(&lag, 0.99) as f64 / 1e3,
        attempted: samples.len() as u64,
        committed,
        failed: samples
            .iter()
            .filter(|s| s.outcome != Outcome::Committed)
            .count() as u64,
        goodput_per_s: committed as f64 / span_s,
        offered_per_s: measured.len() as f64 / span_s,
        first_quarter_p50_us: quarter_p50(&measured[..q]),
        last_quarter_p50_us: quarter_p50(&measured[measured.len() - q..]),
        lat,
    }
}

/// One open-loop run against a fresh server, verified and summarised.
pub struct Segment {
    pub summary: Summary,
    pub mismatches: u64,
    pub busy_rejections: u64,
    pub spans: Vec<Span>,
    /// Sorted; empty unless the no-op probe was asked for.
    pub noop_rtt_ns: Vec<u64>,
    /// WAL and page files left after shutdown (durable workloads).
    pub disk_bytes: u64,
}

/// Start a server, replay `homed.jobs`, verify, optionally replay the first
/// `noop_probe` jobs again as no-ops, stop, and summarise what was scheduled
/// after `warmup_us`.
pub fn run_segment(
    spec: &Spec,
    homed: &Homed,
    warmup_us: u64,
    drive: Drive,
    noop_probe: Option<usize>,
) -> Result<Segment, String> {
    let scratch = Scratch::new();
    let server = start_server(spec, homed, scratch.path()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let (samples, spans) = run_open_loop(addr, &homed.jobs, drive)?;
    let (mismatches, stats) = verify(addr, homed, &samples)?;
    let mut noop_rtt_ns = Vec::new();
    if let Some(n) = noop_probe {
        let jobs = &homed.jobs[..n.min(homed.jobs.len())];
        let (noops, _) = run_open_loop(addr, jobs, Drive::Noop)?;
        noop_rtt_ns = noops.iter().map(|s| s.latency_ns).collect();
        noop_rtt_ns.sort_unstable();
    }
    stop_server(server)?;
    Ok(Segment {
        summary: summarize(&samples, warmup_us),
        mismatches,
        busy_rejections: stats.busy_rejections,
        spans,
        noop_rtt_ns,
        disk_bytes: scratch.disk_bytes(),
    })
}

/// After a run, over a fresh control connection: two extra advancements,
/// the oracle read-back of every acknowledged commit, and the server's
/// counters. Returns `(oracle mismatches, stats)`.
pub fn verify(
    addr: SocketAddr,
    homed: &Homed,
    samples: &[Sample],
) -> Result<(u64, ServerStats), String> {
    let mut oracle = Oracle::new(&homed.schema);
    for s in samples.iter().filter(|s| s.outcome == Outcome::Committed) {
        oracle.acknowledge(&homed.jobs[s.job as usize].plan);
    }
    let mut control = Client::connect(addr).map_err(|e| e.to_string())?;
    control.trigger_advancement().map_err(|e| e.to_string())?;
    control.trigger_advancement().map_err(|e| e.to_string())?;
    let bad = oracle
        .mismatches(|keys| control.read(keys))
        .map_err(|e| e.to_string())?;
    let stats = control.stats().map_err(|e| e.to_string())?;
    Ok((bad, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::{find, rehome};

    #[test]
    fn a_short_run_commits_everything_and_the_oracle_agrees() {
        let spec = find("hospital_tcp").unwrap();
        let homed = rehome(&spec.generate(9, 1.0, 4), spec.topology());
        for drive in [Drive::Library, Drive::Traced] {
            let traced = drive == Drive::Traced;
            let server = start_server(spec, &homed, Path::new("unused")).unwrap();
            let (samples, spans) = run_open_loop(server.addr(), &homed.jobs, drive).unwrap();
            assert_eq!(samples.len(), homed.jobs.len());
            assert!(samples.iter().all(|s| s.outcome == Outcome::Committed));
            let (bad, stats) = verify(server.addr(), &homed, &samples).unwrap();
            assert_eq!(bad, 0);
            assert_eq!(stats.busy_rejections, 0);
            // Five spans per traced transaction, none when untraced.
            assert_eq!(spans.len(), if traced { 5 * samples.len() } else { 0 });
            assert!(spans
                .iter()
                .all(|s| s.parent.is_none_or(|p| spans[p as usize].name == "txn")));
            stop_server(server).unwrap();

            // An acknowledgement the harness forgets shows as a mismatch.
            if !traced {
                let server = start_server(spec, &homed, Path::new("unused")).unwrap();
                let (samples, _) =
                    run_open_loop(server.addr(), &homed.jobs, Drive::Library).unwrap();
                let victim = samples
                    .iter()
                    .position(|s| s.kind == TxnKind::Commuting)
                    .unwrap();
                let mut dropped = samples.clone();
                dropped.remove(victim);
                let (bad, _) = verify(server.addr(), &homed, &dropped).unwrap();
                assert!(bad >= 2);
                stop_server(server).unwrap();
            }
        }
    }
}
