//! Embedded runs: `Engine::submit` called in-process from one thread,
//! closed loop, sockets bypassed.

use std::path::Path;
use std::time::Instant;

use threev_model::{PartitionId, TxnKind};
use threev_server::Engine;
use threev_shard::ShardedCluster;
use threev_sim::SimTime;

use crate::oracle::Oracle;
use crate::plans::{Homed, Spec, ADVANCE_EVERY};
use crate::stats::percentile;
use crate::trace::Tracer;

/// Per-call latencies of one pass over a plan list, by transaction kind.
#[derive(Default)]
pub struct KindLatencies {
    pub update_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub nc_ns: Vec<u64>,
}

impl KindLatencies {
    fn push(&mut self, kind: TxnKind, ns: u64) {
        match kind {
            TxnKind::Commuting => self.update_ns.push(ns),
            TxnKind::ReadOnly => self.read_ns.push(ns),
            TxnKind::NonCommuting => self.nc_ns.push(ns),
        }
    }

    pub fn sort(&mut self) {
        self.update_ns.sort_unstable();
        self.read_ns.sort_unstable();
        self.nc_ns.sort_unstable();
    }
}

/// One repetition: a fresh engine driven through the whole plan list.
pub struct Rep {
    /// Sorted ascending.
    pub lat: KindLatencies,
    pub wall_ns: u64,
    pub attempted: u64,
    pub committed: u64,
    /// Aborts, engine errors and oracle mismatches.
    pub failed: u64,
    pub fingerprint: u64,
    pub max_versions: u32,
    /// Time of one `Engine::fingerprint_hash` call.
    pub fingerprint_ns: u64,
}

impl Rep {
    pub fn committed_per_s(&self) -> f64 {
        self.committed as f64 / (self.wall_ns as f64 / 1e9)
    }
}

pub fn p_us(sorted_ns: &[u64], q: f64) -> f64 {
    percentile(sorted_ns, q) as f64 / 1e3
}

pub fn new_engine(spec: &Spec, homed: &Homed, scratch: &Path, advance_every: u64) -> Engine {
    let cfg = spec.sharded_config(homed.topology, scratch);
    Engine::new(&homed.schema, cfg, advance_every)
}

/// After a pass: two extra advancements so every commit is visible, then
/// the oracle read-back, the fingerprint and the P1 high-water mark.
fn finish(
    engine: &mut Engine,
    homed: &Homed,
    mut lat: KindLatencies,
    wall_ns: u64,
    failed_jobs: &[usize],
) -> Rep {
    let mut oracle = Oracle::new(&homed.schema);
    for (i, job) in homed.jobs.iter().enumerate() {
        if !failed_jobs.contains(&i) {
            oracle.acknowledge(&job.plan);
        }
    }
    engine.trigger_advancement();
    engine.trigger_advancement();
    let mismatches = match oracle.mismatches(|keys| engine.read(keys)) {
        Ok(bad) => bad,
        Err(e) => {
            eprintln!("oracle read-back failed: {e}");
            1
        }
    };
    let t0 = Instant::now();
    let fingerprint = engine.fingerprint_hash().0;
    let fingerprint_ns = t0.elapsed().as_nanos() as u64;
    lat.sort();
    let attempted = homed.jobs.len() as u64;
    Rep {
        lat,
        wall_ns,
        attempted,
        committed: attempted - failed_jobs.len() as u64,
        failed: failed_jobs.len() as u64 + mismatches,
        fingerprint,
        max_versions: engine.cluster().max_versions_high_water(),
        fingerprint_ns,
    }
}

/// One untraced repetition with the engine's own advancement cadence.
pub fn run_rep(spec: &Spec, homed: &Homed, scratch: &Path) -> Rep {
    let mut engine = new_engine(spec, homed, scratch, ADVANCE_EVERY);
    let mut lat = KindLatencies::default();
    let mut failed_jobs = Vec::new();
    let start = Instant::now();
    for (i, job) in homed.jobs.iter().enumerate() {
        let t0 = Instant::now();
        let out = engine.submit(&job.plan);
        let ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(o) if o.committed => lat.push(job.plan.kind, ns),
            _ => failed_jobs.push(i),
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    finish(&mut engine, homed, lat, wall_ns, &failed_jobs)
}

/// A traced pass: the engine runs with its cadence off and the harness
/// triggers advancement itself after every [`ADVANCE_EVERY`] committed
/// updates, so submission and advancement are timed apart. The state the
/// engine goes through is the same as in [`run_rep`].
pub struct TracedPass {
    pub rep: Rep,
    /// Whether job `i` committed (drives the twin's advancement cadence).
    pub committed: Vec<bool>,
    pub advance_ns: Vec<u64>,
    /// Index of job `i`'s `engine.submit` span in the tracer.
    pub submit_span: Vec<u32>,
}

pub fn run_traced_pass(
    spec: &Spec,
    homed: &Homed,
    scratch: &Path,
    tracer: &mut Tracer,
) -> TracedPass {
    let mut engine = new_engine(spec, homed, scratch, 0);
    let mut lat = KindLatencies::default();
    let mut failed_jobs = Vec::new();
    let mut committed = Vec::with_capacity(homed.jobs.len());
    let mut advance_ns = Vec::new();
    let mut submit_span = Vec::with_capacity(homed.jobs.len());
    let mut since_advance = 0;
    let start = Instant::now();
    for (i, job) in homed.jobs.iter().enumerate() {
        let seq = i as u32;
        let t0 = tracer.now_ns();
        let out = engine.submit(&job.plan);
        let t1 = tracer.now_ns();
        let ok = matches!(&out, Ok(o) if o.committed);
        drop(out);
        if ok {
            lat.push(job.plan.kind, t1 - t0);
        } else {
            failed_jobs.push(i);
        }
        committed.push(ok);
        let mut end = t1;
        if ok && job.plan.kind != TxnKind::ReadOnly {
            since_advance += 1;
            if since_advance >= ADVANCE_EVERY {
                engine.trigger_advancement();
                since_advance = 0;
                end = tracer.now_ns();
                advance_ns.push(end - t1);
            }
        }
        let root = tracer.push("txn", t0, end, None, seq);
        submit_span.push(tracer.push("engine.submit", t0, t1, Some(root), seq));
        if end > t1 {
            tracer.push("engine.advance", t1, end, Some(root), seq);
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let rep = finish(&mut engine, homed, lat, wall_ns, &failed_jobs);
    TracedPass {
        rep,
        committed,
        advance_ns,
        submit_span,
    }
}

/// What driving a bare `ShardedCluster` through the same sequence costs.
pub struct TwinPass {
    pub submit_external_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub advance_ns: Vec<u64>,
    pub cross_messages: u64,
    /// Kernel events and delivered messages, summed over partitions.
    pub events: u64,
    pub messages: u64,
    /// `StoreStats` and `NodeStats` counts, summed over nodes.
    pub copies_created: u64,
    pub dual_writes: u64,
    pub wal_records: u64,
    pub fingerprint: u64,
}

/// Drive a twin cluster directly with the calls `Engine::submit` makes:
/// `submit_external`, `run`, and an advancement round on the cadence the
/// engine pass recorded in `committed`.
pub fn run_twin_pass(spec: &Spec, homed: &Homed, scratch: &Path, committed: &[bool]) -> TwinPass {
    let cfg = spec.sharded_config(homed.topology, scratch);
    let partitions = usize::from(homed.topology.n_partitions());
    let mut twin = ShardedCluster::new(&homed.schema, cfg, vec![Vec::new(); partitions]);
    let n = homed.jobs.len();
    let mut pass = TwinPass {
        submit_external_ns: Vec::with_capacity(n),
        run_ns: Vec::with_capacity(n),
        advance_ns: Vec::new(),
        cross_messages: 0,
        events: 0,
        messages: 0,
        copies_created: 0,
        dual_writes: 0,
        wal_records: 0,
        fingerprint: 0,
    };
    let mut since_advance = 0;
    let mut seq = 0;
    for (job, &ok) in homed.jobs.iter().zip(committed) {
        let t0 = Instant::now();
        let accepted = twin.submit_external(seq, &job.plan, None).is_ok();
        let t1 = Instant::now();
        twin.run(SimTime::MAX);
        let t2 = Instant::now();
        pass.submit_external_ns.push((t1 - t0).as_nanos() as u64);
        pass.run_ns.push((t2 - t1).as_nanos() as u64);
        if accepted {
            seq += 1;
        }
        if ok && job.plan.kind != TxnKind::ReadOnly {
            since_advance += 1;
            if since_advance >= ADVANCE_EVERY {
                twin.trigger_advancement_all();
                twin.run(SimTime::MAX);
                since_advance = 0;
                pass.advance_ns.push(t2.elapsed().as_nanos() as u64);
            }
        }
    }
    // The two extra rounds `check` gives the engine, so fingerprints compare.
    for _ in 0..2 {
        twin.trigger_advancement_all();
        twin.run(SimTime::MAX);
    }
    pass.cross_messages = twin.cross_messages();
    for p in 0..twin.n_partitions() {
        let stats = twin.sim_stats(PartitionId(p));
        pass.events += stats.events;
        pass.messages += stats.messages;
    }
    for id in twin.node_ids() {
        let store = twin.node(id).store_stats();
        pass.copies_created += store.copies_created;
        pass.dual_writes += store.dual_writes;
        pass.wal_records += twin.node(id).stats().wal_records;
    }
    pass.fingerprint = cluster_fingerprint(&twin);
    pass
}

/// FNV-1a of the canonical store dump — the dump `Engine::fingerprint`
/// makes, taken from a bare cluster so a twin compares with an engine.
pub fn cluster_fingerprint(cluster: &ShardedCluster) -> u64 {
    use std::fmt::Write as _;
    let mut dump = String::new();
    for id in cluster.node_ids() {
        let n = cluster.node(id);
        let _ = writeln!(dump, "node {id:?} vu={:?} vr={:?}", n.vu(), n.vr());
        let mut keys: Vec<_> = n.store().keys().collect();
        keys.sort_unstable();
        for k in keys {
            let _ = writeln!(dump, "  {k:?} => {:?}", n.store().layout(k));
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dump.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::{find, rehome};

    #[test]
    fn traced_and_twin_passes_reach_the_untraced_state() {
        for name in ["hospital_embedded", "retail_nc_embedded"] {
            let spec = find(name).unwrap();
            let homed = rehome(&spec.generate(5, 1.0, 20), spec.topology());
            let scratch = Path::new("unused");
            let plain = run_rep(spec, &homed, scratch);
            assert_eq!(plain.failed, 0, "{name}");
            assert!(plain.max_versions <= 3, "{name}");
            let mut tracer = Tracer::new(Instant::now());
            let traced = run_traced_pass(spec, &homed, scratch, &mut tracer);
            assert_eq!(traced.rep.fingerprint, plain.fingerprint, "{name}");
            assert_eq!(traced.rep.failed, 0, "{name}");
            let twin = run_twin_pass(spec, &homed, scratch, &traced.committed);
            assert_eq!(twin.fingerprint, plain.fingerprint, "{name}");
        }
    }
}
