//! The `--trace 1` run: per-layer metrics, measured from outside.
//!
//! Three sources feed them, all in the benchmark's own files:
//!
//! * the workload itself run with spans on (TCP: a thin client recording
//!   `txn → {load.wait, proto.encode, server.rtt, proto.decode}`; embedded:
//!   `txn → engine.submit → {shard.submit_external, shard.run}`, the
//!   children supplied by a twin `ShardedCluster` driven with the same
//!   sequence);
//! * direct drives of one layer's public functions over the workload's own
//!   plans (`proto`, `core` codec, `ThreeVCluster`, `Store`, `LockTable`,
//!   `Durability`);
//! * counts the layers keep (`SimStats`, `NodeStats`, `StoreStats`,
//!   `AdvancementRecord`).
//!
//! End-to-end gating is off here; the spans go to
//! `benchmark/out/trace-<workload>.json` after measurement.

use std::hint::black_box;
use std::time::{Duration, Instant};

use threev_core::client::Arrival;
use threev_core::{AdvancementPolicy, ClusterConfig, Msg, ProtocolMsg, ThreeVCluster};
use threev_durability::{Durability, FileBackend, Snapshot, WalOp};
use threev_model::{NodeId, OpStep, TxnId, TxnKind, VersionNo};
use threev_server::{Request, Response};
use threev_sim::{SimDuration, SimTime};
use threev_storage::wire::decode_frame;
use threev_storage::{LockMode, LockTable, PagedBackend, Store};

use crate::embedded::{self, p_us, Rep};
use crate::metrics::Values;
use crate::plans::{rehome, Homed, Logical, Spec, Transport, ADVANCE_EVERY, CHECKPOINT_EVERY};
use crate::run::{check_reps, out_dir, prepare, Options, RunResult, Scratch, WARMUP_SHARE};
use crate::stats::mean;
use crate::tcp::{self, Drive};
use crate::trace::{self, Span, Tracer};

/// Frames timed by the codec drives.
const CODEC_SAMPLE: usize = 5000;
/// Jobs of the schedule the no-op probe replays.
const NOOP_ROUND_TRIPS: usize = 1500;
/// Plans the layer probes of the durable workload replay (each costs
/// ~0.5 ms there); other workloads replay their whole list.
const DURABLE_PROBE_TXNS: usize = 2000;
/// The latency limit of the rate ladder, on update p99.
const SLO_UPDATE_P99_US: f64 = 2000.0;
/// Idle time after the ladder (six seconds cleared a 20 s two-core burn).
const LADDER_COOL_DOWN: Duration = Duration::from_secs(6);

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Time `encode` over every item and `decode` over every frame it made,
/// and set `<prefix>_encode_ns`, `<prefix>_decode_ns` and `<prefix>_bytes`
/// (means per item).
fn codec_drive<T>(
    v: &mut Values,
    [encode_name, decode_name, bytes_name]: [&'static str; 3],
    items: &[T],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]),
) {
    let n = items.len() as u64;
    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = items.iter().map(|i| encode(black_box(i))).collect();
    let encode_ns = t0.elapsed().as_nanos();
    let t0 = Instant::now();
    for f in &frames {
        decode(black_box(f));
    }
    let decode_ns = t0.elapsed().as_nanos();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    v.set(encode_name, encode_ns as f64 / n as f64, n);
    v.set(decode_name, decode_ns as f64 / n as f64, n);
    v.set(bytes_name, bytes as f64 / n as f64, n);
}

/// `Request`/`Response` codec (with frame verification, as the server and
/// the client do it) over the workload's own `Submit` frames, and
/// `Msg::encode`/`decode` over the `Msg::submit` frames of the same plans.
fn codec_layers(homed: &Homed, v: &mut Values) {
    let sample = &homed.jobs[..homed.jobs.len().min(CODEC_SAMPLE)];
    let requests: Vec<Request> = sample
        .iter()
        .map(|j| Request::Submit {
            plan: j.plan.clone(),
        })
        .collect();
    codec_drive(
        v,
        [
            "proto.request_encode_ns",
            "proto.request_decode_ns",
            "proto.request_bytes",
        ],
        &requests,
        |r| r.encode().expect("plan fits a frame"),
        |f| {
            let (header, payload) = decode_frame(f).expect("own frame");
            black_box(Request::decode(header.kind, payload).expect("own frame"));
        },
    );
    // A submission is answered `TxnDone` whatever its kind.
    let responses: Vec<Response> = sample
        .iter()
        .enumerate()
        .map(|(i, j)| Response::TxnDone {
            txn: TxnId::new(i as u64, j.plan.root.node),
            committed: true,
            version: Some(VersionNo(1 + (i as u64 / ADVANCE_EVERY) as u32)),
        })
        .collect();
    codec_drive(
        v,
        [
            "proto.response_encode_ns",
            "proto.response_decode_ns",
            "proto.response_bytes",
        ],
        &responses,
        |r| r.encode().expect("fits a frame"),
        |f| {
            let (header, payload) = decode_frame(f).expect("own frame");
            black_box(Response::decode(header.kind, payload).expect("own frame"));
        },
    );
    let msgs: Vec<Msg> = sample
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let root = j.plan.root.node;
            let client = homed.topology.client(homed.topology.partition_of(root));
            Msg::submit(
                TxnId::new(i as u64, root),
                j.plan.kind,
                j.plan.root.clone(),
                client,
                None,
            )
        })
        .collect();
    codec_drive(
        v,
        ["core.msg_encode_ns", "core.msg_decode_ns", "core.msg_bytes"],
        &msgs,
        |m| m.encode().expect("plan fits a frame"),
        |f| {
            black_box(Msg::decode(f).expect("own frame"));
        },
    );
}

/// `ThreeVCluster::run` over the logical plans as scheduled arrivals: the
/// single-threaded DES host-cost probe. Advancement is periodic in virtual
/// time, at the period in which the schedule commits [`ADVANCE_EVERY`]
/// transactions.
fn core_cluster_layer(spec: &Spec, logical: &Logical, v: &mut Values) {
    let scratch = Scratch::new();
    let n = logical.jobs.len() as u64;
    let (durability, backend) = spec.node_storage(scratch.path());
    let period = SimDuration((ADVANCE_EVERY as f64 / spec.rate_tps * 1e6) as u64);
    let mut cfg = ClusterConfig::new(spec.nodes())
        .durability(durability)
        .backend(backend)
        .advancement(AdvancementPolicy::Periodic {
            first: period,
            period,
        });
    if spec.locks {
        cfg = cfg.with_locks();
    }
    let arrivals: Vec<Arrival> = logical
        .jobs
        .iter()
        .map(|j| Arrival::at(SimTime(j.at_us), j.plan.clone()))
        .collect();
    let horizon = SimTime(logical.jobs.last().map_or(0, |j| j.at_us) + 1_000_000);
    let mut cluster = ThreeVCluster::new(&logical.schema, cfg, arrivals);
    let t0 = Instant::now();
    cluster.run_until(horizon);
    let wall = t0.elapsed();
    v.set(
        "core.cluster_run_us",
        us(wall.as_nanos() as f64) / n as f64,
        n,
    );
    let node_stats = cluster.node_stats();
    let sum = |f: &dyn Fn(&threev_core::node::NodeStats) -> u64| -> u64 {
        node_stats.iter().map(|s| f(s)).sum()
    };
    v.set(
        "core.subtxns_per_txn",
        sum(&|s| s.subtxns_executed) as f64 / n as f64,
        n,
    );
    v.set("core.nc_commits", sum(&|s| s.nc_commits) as f64, n);
    v.set("core.nc_rollbacks", sum(&|s| s.nc_rollbacks) as f64, n);
    let rounds = cluster.advancements();
    if !rounds.is_empty() {
        let k = rounds.len() as u64;
        let msgs = cluster.sim_stats().tagged("advance");
        let total_us: u64 = rounds.iter().map(|r| r.total().as_micros()).sum();
        let p2: u64 = rounds.iter().map(|r| r.p2_rounds).sum();
        v.set("core.advancement_msgs_per_round", msgs as f64 / k as f64, k);
        v.set("core.advancement_virtual_us", total_us as f64 / k as f64, k);
        v.set("core.p2_rounds", p2 as f64 / k as f64, k);
    }
}

fn slot_of(node_ids: &[NodeId], n: NodeId) -> usize {
    node_ids
        .iter()
        .position(|&x| x == n)
        .expect("plans visit database nodes only")
}

/// Replay the workload's `(key, op)` stream straight into one `Store` per
/// node, moving the version window every [`ADVANCE_EVERY`] update
/// transactions the way advancement does (and `LockTable`s, when the
/// workload runs with locks).
fn storage_layer(spec: &Spec, homed: &Homed, v: &mut Values) {
    let node_ids = homed.node_ids();
    let slot = |n: NodeId| slot_of(&node_ids, n);
    let mut stores: Vec<Store> = node_ids
        .iter()
        .map(|&n| Store::from_schema(&homed.schema, n))
        .collect();
    let (mut vr, mut vu) = (VersionNo(0), VersionNo(1));
    let (mut update_ns, mut updates, mut read_ns, mut reads) = (0u64, 0u64, 0u64, 0u64);
    let mut gc_ns: Vec<u64> = Vec::new();
    let mut since_advance = 0;
    for (i, job) in homed.jobs.iter().enumerate() {
        let txn = TxnId::new(i as u64, job.plan.root.node);
        let steps = job.plan.root.all_steps();
        let t0 = Instant::now();
        for (node, step) in &steps {
            let store = &mut stores[slot(*node)];
            match step {
                OpStep::Read(k) => {
                    black_box(store.read_visible(*k, vr).expect("schema key"));
                }
                OpStep::Update(k, op) => {
                    black_box(store.update(*k, vu, *op, txn, None).expect("schema key"));
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if job.plan.kind == TxnKind::ReadOnly {
            read_ns += ns;
            reads += steps.len() as u64;
        } else {
            update_ns += ns;
            updates += steps.len() as u64;
            since_advance += 1;
            if since_advance >= ADVANCE_EVERY {
                since_advance = 0;
                vr = vu;
                vu = vu.next();
                let t0 = Instant::now();
                for s in &mut stores {
                    s.gc(vr);
                }
                gc_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    v.set(
        "storage.update_ns",
        update_ns as f64 / updates.max(1) as f64,
        updates,
    );
    v.set(
        "storage.read_ns",
        read_ns as f64 / reads.max(1) as f64,
        reads,
    );
    v.set("storage.gc_us", us(mean(&gc_ns)), gc_ns.len() as u64);

    if spec.locks {
        let mut tables: Vec<LockTable> = node_ids.iter().map(|_| LockTable::new()).collect();
        let (mut lock_ns, mut locks) = (0u64, 0u64);
        for (i, job) in homed.jobs.iter().enumerate() {
            let txn = TxnId::new(i as u64, job.plan.root.node);
            let mode = if job.plan.kind == TxnKind::NonCommuting {
                LockMode::Exclusive
            } else {
                LockMode::Commute
            };
            let steps = job.plan.root.all_steps();
            let t0 = Instant::now();
            for (node, step) in &steps {
                black_box(tables[slot(*node)].acquire(step.key(), mode, txn));
            }
            for node in job.plan.root.nodes() {
                black_box(tables[slot(node)].release_all(txn));
            }
            lock_ns += t0.elapsed().as_nanos() as u64;
            locks += steps.len() as u64;
        }
        // One acquire plus its share of the transaction's `release_all`.
        v.set(
            "storage.lock_acquire_ns",
            lock_ns as f64 / locks.max(1) as f64,
            locks,
        );
    }
}

/// The same update stream into `Store`s on `PagedBackend`s, flushing every
/// dirty store each [`ADVANCE_EVERY`] transactions.
fn paged_layer(homed: &Homed, v: &mut Values) -> Result<(), String> {
    let scratch = Scratch::new();
    let node_ids = homed.node_ids();
    let slot = |n: NodeId| slot_of(&node_ids, n);
    let mut stores = Vec::new();
    for &n in &node_ids {
        let dir = scratch.path().join(format!("store-node-{}", n.0));
        let backend = PagedBackend::open(&dir).map_err(|e| e.to_string())?;
        stores.push(Store::from_schema_on(backend, &homed.schema, n));
    }
    let (mut flush_ns, mut flush_bytes) = (Vec::new(), Vec::new());
    let mut lsn = 0;
    for (i, job) in homed.jobs.iter().enumerate() {
        let txn = TxnId::new(i as u64, job.plan.root.node);
        for (node, step) in job.plan.root.all_steps() {
            if let OpStep::Update(k, op) = step {
                stores[slot(node)]
                    .update(*k, VersionNo(1), *op, txn, None)
                    .map_err(|e| e.to_string())?;
            }
        }
        if (i as u64 + 1).is_multiple_of(ADVANCE_EVERY) {
            for s in &mut stores {
                lsn += 1;
                let t0 = Instant::now();
                let bytes = s.flush_dirty(lsn);
                if bytes > 0 {
                    flush_ns.push(t0.elapsed().as_nanos() as u64);
                    flush_bytes.push(bytes);
                }
            }
        }
    }
    v.set(
        "storage.paged_flush_us",
        us(mean(&flush_ns)),
        flush_ns.len() as u64,
    );
    v.set(
        "storage.paged_bytes_per_flush",
        mean(&flush_bytes),
        flush_bytes.len() as u64,
    );
    Ok(())
}

/// `Durability::log/sync/checkpoint/recover` on a `FileBackend`, fed the
/// record mix a node logs for these plans: one `Update` per update step
/// and one `IncRequest` + `IncCompletion` per subtransaction.
/// Returns the mean encoded bytes per record.
fn durability_layer(homed: &Homed, v: &mut Values) -> Result<f64, String> {
    let scratch = Scratch::new();
    let backend = FileBackend::open(scratch.path().join("node")).map_err(|e| e.to_string())?;
    // Never checkpoints on its own: the drive times each call itself.
    let mut dur = Durability::new(Box::new(backend), 0);
    let node_ids = homed.node_ids();
    let snapshot = || Snapshot {
        node: node_ids[0],
        lsn: 0,
        vu: VersionNo(1),
        vr: VersionNo(0),
        external_store: false,
        store: node_ids
            .iter()
            .flat_map(|&n| Store::from_schema(&homed.schema, n).export_parts())
            .collect(),
        counters: Vec::new(),
        locks: Vec::new(),
    };
    // Recovery starts from a checkpoint; everything logged below replays.
    dur.checkpoint(snapshot());

    let (mut log_ns, mut records) = (0u64, 0u64);
    let mut sync_ns = Vec::new();
    let mut since_sync = 0;
    for (i, job) in homed.jobs.iter().enumerate() {
        let txn = TxnId::new(i as u64, job.plan.root.node);
        let mut ops = Vec::new();
        job.plan.root.visit(&mut |sub| {
            ops.push(WalOp::IncRequest {
                version: VersionNo(1),
                to: sub.node,
            });
            for step in &sub.steps {
                if let OpStep::Update(key, op) = step {
                    ops.push(WalOp::Update {
                        key: *key,
                        version: VersionNo(1),
                        op: *op,
                        txn,
                    });
                }
            }
            ops.push(WalOp::IncCompletion {
                version: VersionNo(1),
                from: sub.node,
            });
        });
        records += ops.len() as u64;
        since_sync += ops.len();
        let t0 = Instant::now();
        for op in ops {
            dur.log(op);
        }
        log_ns += t0.elapsed().as_nanos() as u64;
        if since_sync >= CHECKPOINT_EVERY {
            since_sync = 0;
            let t0 = Instant::now();
            dur.sync();
            sync_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let wal_bytes = std::fs::metadata(scratch.path().join("node").join("wal.log"))
        .map_err(|e| e.to_string())?
        .len();
    v.set(
        "durability.log_us",
        us(log_ns as f64) / records.max(1) as f64,
        records,
    );
    v.set(
        "durability.sync_us",
        us(mean(&sync_ns)),
        sync_ns.len() as u64,
    );

    let t0 = Instant::now();
    let recovered = dur.recover().ok_or("nothing to recover")?;
    let replay = t0.elapsed();
    v.set(
        "durability.replay_records_per_s",
        recovered.replayed as f64 / replay.as_secs_f64(),
        recovered.replayed,
    );

    let mut checkpoint_ns = Vec::new();
    for _ in 0..20 {
        let snap = snapshot();
        let t0 = Instant::now();
        dur.checkpoint(snap);
        dur.sync();
        checkpoint_ns.push(t0.elapsed().as_nanos() as u64);
    }
    v.set(
        "durability.checkpoint_us",
        us(mean(&checkpoint_ns)),
        checkpoint_ns.len() as u64,
    );
    Ok(wal_bytes as f64 / records.max(1) as f64)
}

/// The workload's first `n` plans on `topology`.
fn probe_plans(logical: &Logical, n: usize) -> Logical {
    Logical {
        schema: logical.schema.clone(),
        jobs: logical.jobs[..n].to_vec(),
    }
}

/// Engine, shard and sim layers: the plans through an `Engine` with spans
/// on, through a twin `ShardedCluster`, and through the single-partition
/// twin. On embedded workloads an untraced repetition runs first, for the
/// tracing overhead.
fn engine_layers(spec: &Spec, logical: &Logical, tracer: &mut Tracer, out: &mut RunResult) {
    let homed = rehome(logical, spec.topology());
    let n = homed.jobs.len() as u64;
    let plain_rep = || {
        let scratch = Scratch::new();
        embedded::run_rep(spec, &homed, scratch.path())
    };
    // The first pass of a process pays for growing the heap; the untraced
    // repetition the traced one is compared with runs after it, warm too.
    let warm_up = (spec.transport == Transport::Embedded).then(plain_rep);
    let traced = {
        let scratch = Scratch::new();
        embedded::run_traced_pass(spec, &homed, scratch.path(), tracer)
    };
    let plain = warm_up.is_some().then(plain_rep);
    let twin = {
        let scratch = Scratch::new();
        embedded::run_twin_pass(spec, &homed, scratch.path(), &traced.committed)
    };
    let single = {
        let scratch = Scratch::new();
        let homed = rehome(logical, spec.single_partition_topology());
        embedded::run_twin_pass(spec, &homed, scratch.path(), &traced.committed)
    };

    let rep = &traced.rep;
    out.attempted += rep.attempted;
    out.failed += rep.failed;
    let reps: Vec<&Rep> = [Some(rep), plain.as_ref(), warm_up.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    check_reps(&reps, &mut out.problems);
    if twin.fingerprint != rep.fingerprint {
        out.problems
            .push("the twin cluster ended in a different fingerprint than the engine".to_string());
    }

    // The twin's per-transaction times become children of `engine.submit`.
    for (i, &parent) in traced.submit_span.iter().enumerate() {
        let start = tracer.spans[parent as usize].start_ns;
        let mid = start + twin.submit_external_ns[i];
        tracer.push("shard.submit_external", start, mid, Some(parent), i as u32);
        tracer.push(
            "shard.run",
            mid,
            mid + twin.run_ns[i],
            Some(parent),
            i as u32,
        );
    }
    let self_ns = trace::self_times_ns(&tracer.spans);
    let overhead_us = us(trace::mean_self_ns(
        &tracer.spans,
        &self_ns,
        "engine.submit",
    ));

    let v = &mut out.values;
    let lat = &rep.lat;
    v.set(
        "engine.submit_update_us",
        us(mean(&lat.update_ns)),
        lat.update_ns.len() as u64,
    );
    v.set(
        "engine.submit_update_p50_us",
        p_us(&lat.update_ns, 0.5),
        lat.update_ns.len() as u64,
    );
    v.set(
        "engine.submit_read_us",
        us(mean(&lat.read_ns)),
        lat.read_ns.len() as u64,
    );
    v.set(
        "engine.submit_nc_us",
        us(mean(&lat.nc_ns)),
        lat.nc_ns.len() as u64,
    );
    v.set(
        "engine.advance_us",
        us(mean(&traced.advance_ns)),
        traced.advance_ns.len() as u64,
    );
    v.set("engine.overhead_us", overhead_us, n);
    v.set("engine.fingerprint_ms", rep.fingerprint_ns as f64 / 1e6, 1);
    let submit_external_us = us(mean(&twin.submit_external_ns));
    let run_us = us(mean(&twin.run_ns));
    let run_1part_us = us(mean(&single.run_ns));
    v.set("shard.submit_external_us", submit_external_us, n);
    v.set("shard.run_us", run_us, n);
    v.set("shard.run_1part_us", run_1part_us, n);
    v.set("shard.xpart_penalty_us", run_us - run_1part_us, n);
    v.set(
        "shard.cross_messages_per_txn",
        twin.cross_messages as f64 / n as f64,
        n,
    );
    v.set("sim.events_per_txn", twin.events as f64 / n as f64, n);
    v.set("sim.messages_per_txn", twin.messages as f64 / n as f64, n);
    let in_run_ns: u64 = twin.run_ns.iter().chain(&twin.advance_ns).sum();
    v.set(
        "sim.events_per_cpu_s",
        twin.events as f64 / (in_run_ns as f64 / 1e9),
        twin.events,
    );
    v.set(
        "storage.copies_per_txn",
        twin.copies_created as f64 / n as f64,
        n,
    );
    v.set(
        "storage.dual_writes_per_txn",
        twin.dual_writes as f64 / n as f64,
        n,
    );
    v.set(
        "durability.records_per_txn",
        twin.wal_records as f64 / n as f64,
        n,
    );
    v.set("nc_p50_us", p_us(&lat.nc_ns, 0.5), lat.nc_ns.len() as u64);

    let all: u64 = [&lat.update_ns, &lat.read_ns, &lat.nc_ns]
        .iter()
        .map(|l| l.iter().sum::<u64>())
        .sum();
    let submit_us = us(all as f64) / rep.committed.max(1) as f64;
    let parts = submit_external_us + run_us + overhead_us;
    out.notes.push(format!(
        "attribution: shard.submit_external {submit_external_us:.2} + shard.run {run_us:.2} + \
         engine.overhead {overhead_us:.2} = {parts:.2} us against mean engine.submit \
         {submit_us:.2} us ({:+.1} %)",
        (parts / submit_us - 1.0) * 100.0
    ));
    if let Some(plain) = &plain {
        v.set(
            "trace.overhead_pct",
            (rep.wall_ns as f64 / plain.wall_ns as f64 - 1.0) * 100.0,
            n,
        );
        v.set(
            "traced.update_p50_us",
            p_us(&lat.update_ns, 0.5),
            lat.update_ns.len() as u64,
        );
        // The tails of the untraced repetition: there a submit that trips
        // the cadence carries the advancement, as a user sees it.
        let (updates, reads) = (&plain.lat.update_ns, &plain.lat.read_ns);
        v.set("update_p99_us", p_us(updates, 0.99), updates.len() as u64);
        v.set("read_p99_us", p_us(reads, 0.99), reads.len() as u64);
    }
}

/// One open-loop segment at `rate_tps` against a fresh server.
fn run_segment(
    spec: &Spec,
    seed: u64,
    rate_tps: f64,
    seconds: f64,
    drive: Drive,
    probe_noop: bool,
) -> Result<tcp::Segment, String> {
    let at_rate = Spec { rate_tps, ..*spec };
    let homed = rehome(&at_rate.generate(seed, seconds, 1), spec.topology());
    tcp::run_segment(
        spec,
        &homed,
        (seconds * WARMUP_SHARE * 1e6) as u64,
        drive,
        probe_noop.then_some(NOOP_ROUND_TRIPS),
    )
}

/// The TCP side of a traced run: an untraced and a traced segment at the
/// workload's rate (their difference is the tracing overhead), the no-op
/// round-trip probe, and — where the workload has one — the rate ladder.
fn tcp_layers(
    spec: &Spec,
    opts: &Options,
    spans: &mut Vec<Span>,
    out: &mut RunResult,
) -> Result<(), String> {
    let seconds = opts.seconds as f64 / opts.scale_down() as f64;
    let segments = 2 + spec
        .ladder_tps
        .iter()
        .filter(|&&r| r != spec.rate_tps)
        .count();
    let seg_seconds = seconds * 0.8 / segments as f64;
    let plain = run_segment(
        spec,
        opts.seed,
        spec.rate_tps,
        seg_seconds,
        Drive::Library,
        false,
    )?;
    let mut main = run_segment(
        spec,
        opts.seed,
        spec.rate_tps,
        seg_seconds,
        Drive::Traced,
        true,
    )?;
    spans.append(&mut main.spans);

    let mut busy = plain.busy_rejections + main.busy_rejections;
    let mut lag = main.summary.sched_lag_p99_us;
    out.attempted += plain.summary.attempted + main.summary.attempted;
    out.failed += plain.summary.failed + plain.mismatches + main.summary.failed + main.mismatches;

    // Climb until a step misses the limit; steps above it would only
    // saturate both cores, which the next run on this host pays for.
    let mut max_rate = 0.0;
    for &rate in spec.ladder_tps {
        let step;
        let s = if rate == spec.rate_tps {
            &main
        } else {
            step = run_segment(spec, opts.seed, rate, seg_seconds, Drive::Traced, false)?;
            busy += step.busy_rejections;
            lag = lag.max(step.summary.sched_lag_p99_us);
            out.attempted += step.summary.attempted;
            out.failed += step.summary.failed + step.mismatches;
            &step
        };
        let p99 = p_us(&s.summary.lat.update_ns, 0.99);
        let keeps_up = s.summary.goodput_per_s >= 0.99 * s.summary.offered_per_s
            && s.summary.last_quarter_p50_us <= 2.0 * s.summary.first_quarter_p50_us;
        let meets = p99 <= SLO_UPDATE_P99_US && keeps_up;
        out.notes.push(format!(
            "ladder {rate} tps: update p50 {:.1} us, p99 {p99:.1} us (n = {}), achieved {:.0}/s, \
             quarter p50 {:.1} -> {:.1} us: {}",
            p_us(&s.summary.lat.update_ns, 0.5),
            s.summary.lat.update_ns.len(),
            s.summary.goodput_per_s,
            s.summary.first_quarter_p50_us,
            s.summary.last_quarter_p50_us,
            if meets {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if !meets {
            break;
        }
        max_rate = rate;
    }

    if !spec.ladder_tps.is_empty() && !opts.quick {
        // The top of the ladder saturates both cores for seconds, and this
        // host then wakes threads ~3x slower until it has idled a while:
        // idle here, so the run that follows this one is not the one to pay.
        std::thread::sleep(LADDER_COOL_DOWN);
    }

    let v = &mut out.values;
    let traced_p50 = p_us(&main.summary.lat.update_ns, 0.5);
    let plain_p50 = p_us(&plain.summary.lat.update_ns, 0.5);
    let n = main.summary.lat.update_ns.len() as u64;
    v.set("traced.update_p50_us", traced_p50, n);
    v.set("update_p99_us", main.summary.update_us.1, n);
    v.set(
        "read_p99_us",
        main.summary.read_us.1,
        main.summary.lat.read_ns.len() as u64,
    );
    v.set(
        "trace.overhead_pct",
        (traced_p50 / plain_p50 - 1.0) * 100.0,
        n,
    );
    v.set("load.sched_lag_p99_us", lag, n);
    v.set("server.busy_rejections", busy as f64, out.attempted);
    let noop_p50 = p_us(&main.noop_rtt_ns, 0.5);
    let rtts = main.noop_rtt_ns.len() as u64;
    v.set("server.noop_rtt_p50_us", noop_p50, rtts);
    v.set(
        "server.noop_rtt_p99_us",
        p_us(&main.noop_rtt_ns, 0.99),
        rtts,
    );
    if !spec.ladder_tps.is_empty() {
        v.set(
            "max_rate_under_slo_tps",
            max_rate,
            spec.ladder_tps.len() as u64,
        );
    }
    if spec.durable {
        v.set(
            "disk_bytes_per_txn",
            main.disk_bytes as f64 / main.summary.committed.max(1) as f64,
            main.summary.committed,
        );
    }
    Ok(())
}

pub fn run_traced(spec: &'static Spec, opts: &Options) -> Result<RunResult, String> {
    let prepared = prepare(spec, opts)?;
    let mut out = RunResult::default();
    out.values.set("load.gen_s", prepared.gen_s, 1);
    let mut spans = Vec::new();
    if spec.transport == Transport::Tcp {
        tcp_layers(spec, opts, &mut spans, &mut out)?;
    }

    let probe_txns = if spec.durable {
        prepared
            .logical
            .jobs
            .len()
            .min(DURABLE_PROBE_TXNS / opts.scale_down())
    } else {
        prepared.logical.jobs.len()
    };
    let probe = probe_plans(&prepared.logical, probe_txns);
    let probe_homed = rehome(&probe, spec.topology());

    let mut tracer = Tracer::new(Instant::now());
    engine_layers(spec, &probe, &mut tracer, &mut out);
    if spec.transport == Transport::Embedded {
        spans = tracer.spans;
    }
    codec_layers(&probe_homed, &mut out.values);
    core_cluster_layer(spec, &probe, &mut out.values);
    storage_layer(spec, &probe_homed, &mut out.values);
    if spec.durable {
        paged_layer(&probe_homed, &mut out.values)?;
        let bytes_per_record = durability_layer(&probe_homed, &mut out.values)?;
        let records = out.values.get("durability.records_per_txn").unwrap_or(0.0);
        out.values.set(
            "durability.wal_bytes_per_txn",
            bytes_per_record * records,
            probe_txns as u64,
        );
    }

    // Medians throughout: on the durable workload one update in twenty-five
    // carries a checkpoint and pulls the mean to twice the median.
    if let (Some(rtt), Some(engine), Some(p50)) = (
        out.values.get("server.noop_rtt_p50_us"),
        out.values.get("engine.submit_update_p50_us"),
        out.values.get("traced.update_p50_us"),
    ) {
        let codec: f64 = [
            "request_encode",
            "request_decode",
            "response_encode",
            "response_decode",
        ]
        .iter()
        .filter_map(|c| out.values.get(&format!("proto.{c}_ns")))
        .sum::<f64>()
            / 1e3;
        // What is left of a round trip once engine and codec are taken out.
        out.values.set(
            "server.frontend_share_pct",
            (p50 - engine - codec) / p50 * 100.0,
            1,
        );
        let parts = rtt + engine + codec;
        out.notes.push(format!(
            "attribution: server.noop_rtt p50 {rtt:.1} + engine.submit_update p50 {engine:.1} + \
             proto codec {codec:.1} = {parts:.1} us against update p50 {p50:.1} us ({:+.1} %)",
            (parts / p50 - 1.0) * 100.0
        ));
    }

    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    let path = out_dir().join(format!("trace-{}.json", spec.name));
    trace::write_json(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::find;

    fn traced(name: &str) -> RunResult {
        let opts = Options {
            seed: 1,
            seconds: 1,
            quick: true,
        };
        let out = run_traced(find(name).unwrap(), &opts).unwrap();
        assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
        out
    }

    #[test]
    fn layers_off_a_workloads_path_read_zero() {
        let local = traced("local_embedded").values;
        assert_eq!(local.get("shard.cross_messages_per_txn"), Some(0.0));
        assert_eq!(local.get("durability.records_per_txn"), Some(0.0));
        assert_eq!(local.get("durability.log_us"), None);
        assert_eq!(local.get("server.noop_rtt_p50_us"), None);
        assert_eq!(local.get("nc_p50_us"), Some(0.0));
        assert!(local.get("engine.submit_update_us").unwrap() > 0.0);

        let xpart = traced("xpart_embedded").values;
        assert!(xpart.get("shard.cross_messages_per_txn").unwrap() > 5.0);

        let retail = traced("retail_nc_embedded").values;
        assert!(retail.get("nc_p50_us").unwrap() > 0.0);
        assert!(retail.get("storage.lock_acquire_ns").unwrap() > 0.0);
    }

    #[test]
    fn the_durable_tcp_workload_fills_the_durability_and_server_layers() {
        let v = traced("ingest_durable_tcp").values;
        for name in [
            "durability.log_us",
            "durability.sync_us",
            "durability.checkpoint_us",
            "durability.wal_bytes_per_txn",
            "durability.records_per_txn",
            "durability.replay_records_per_s",
            "storage.paged_flush_us",
            "storage.paged_bytes_per_flush",
            "disk_bytes_per_txn",
            "server.noop_rtt_p50_us",
            "traced.update_p50_us",
        ] {
            assert!(v.get(name).unwrap_or(0.0) > 0.0, "{name}");
        }
    }
}
