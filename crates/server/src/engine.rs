//! The command-driven engine behind the server.
//!
//! An [`Engine`] owns a [`ShardedCluster`] and executes one command at a
//! time: a submission is injected at the current virtual instant and the
//! cluster runs to quiescence before the outcome is reported. That makes
//! the server's protocol-visible behaviour a pure function of the command
//! sequence — the socket layer may race over *which* command arrives next,
//! but never over what a given command does. The loopback e2e test leans
//! on this: a workload replayed through real sockets must leave the same
//! committed store as the in-process driver at the same seed.
//!
//! The engine keeps no per-transaction state once it has replied: after
//! the run to quiescence it takes the finished record out of the root
//! partition's client ([`ShardedCluster::take_finished`]) and moves its
//! reads into the [`TxnOutcome`], so memory is sized by the store, not by
//! how many commands the server has answered. Every other driver of a
//! cluster keeps its full records for the auditor.
//!
//! Version advancement runs on a commit cadence (`advance_every`): after
//! every N committed updates the engine asks every partition's coordinator
//! for one advancement and drains it, so read-only transactions see fresh
//! versions without any wall-clock timers inside the deterministic core.

use std::collections::BTreeMap;

use threev_model::{Key, NodeId, Schema, SubtxnPlan, TxnId, TxnKind, TxnPlan, VersionNo};
use threev_shard::{ShardedCluster, ShardedConfig, SubmitError};
use threev_sim::SimTime;

use crate::proto::{ReadResult, ServerStats};
use threev_analysis::TxnStatus;
use threev_model::PartitionId;

/// Why the engine refused or failed a command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The cluster rejected the plan before execution.
    Submit(SubmitError),
    /// A read named a key the schema does not declare.
    UnknownKey(Key),
    /// The cluster ran to quiescence but the transaction left no finished
    /// record to take (or a read-only tree's record lacks a requested
    /// key) — an engine invariant violation, reported (never panicked) so
    /// the server can answer with a typed error.
    RecordMissing(TxnId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Submit(e) => write!(f, "{e}"),
            EngineError::UnknownKey(k) => write!(f, "key {k} is not in the schema"),
            EngineError::RecordMissing(t) => {
                write!(f, "transaction {t:?} left no finished record")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The reported outcome of one submitted transaction.
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    /// Id the engine assigned.
    pub txn: TxnId,
    /// Did the whole tree commit?
    pub committed: bool,
    /// Version the transaction executed in.
    pub version: Option<VersionNo>,
    /// Reads observed during execution.
    pub reads: Vec<ReadResult>,
}

/// The sharded cluster plus the submission/advancement bookkeeping the
/// server needs.
pub struct Engine {
    cluster: ShardedCluster,
    schema: Schema,
    next_seq: u64,
    advance_every: u64,
    since_advance: u64,
    submitted: u64,
    committed: u64,
    aborted: u64,
    reads_served: u64,
    advancements: u64,
}

impl Engine {
    /// Build an engine over `schema` with no scheduled arrivals: every
    /// transaction enters through [`Engine::submit`]. `advance_every` is
    /// the commit cadence of automatic version advancement (0 disables
    /// it; advancement then only happens via
    /// [`Engine::trigger_advancement`]).
    pub fn new(schema: &Schema, cfg: ShardedConfig, advance_every: u64) -> Self {
        let partitions = usize::from(cfg.topology.n_partitions());
        let cluster = ShardedCluster::new(schema, cfg, vec![Vec::new(); partitions]);
        Engine {
            cluster,
            schema: schema.clone(),
            next_seq: 0,
            advance_every,
            since_advance: 0,
            submitted: 0,
            committed: 0,
            aborted: 0,
            reads_served: 0,
            advancements: 0,
        }
    }

    /// The schema this engine serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Execute one plan to completion and report its outcome.
    pub fn submit(&mut self, plan: &TxnPlan) -> Result<TxnOutcome, EngineError> {
        let txn = self
            .cluster
            .submit_external(self.next_seq, plan, None)
            .map_err(EngineError::Submit)?;
        self.next_seq += 1;
        self.submitted += 1;
        self.cluster.run(SimTime::MAX);
        let outcome = self.outcome_of(txn)?;
        if outcome.committed {
            self.committed += 1;
            if plan.kind != TxnKind::ReadOnly && self.advance_every > 0 {
                self.since_advance += 1;
                if self.since_advance >= self.advance_every {
                    self.trigger_advancement();
                }
            }
        } else {
            self.aborted += 1;
        }
        Ok(outcome)
    }

    /// Read the transaction-visible values of `keys` through a read-only
    /// transaction tree spanning every home node. Duplicates are served
    /// once; results come back in first-occurrence order.
    pub fn read(&mut self, keys: &[Key]) -> Result<Vec<ReadResult>, EngineError> {
        let Some((unique, plan)) = self.read_plan(keys)? else {
            return Ok(Vec::new());
        };
        let outcome = self.submit(&plan)?;
        self.reads_served += 1;
        // Move the observations into first-occurrence request order.
        let mut reads = outcome.reads;
        let mut out = Vec::with_capacity(unique.len());
        for k in unique {
            match reads.iter().position(|r| r.key == k) {
                Some(i) => out.push(reads.swap_remove(i)),
                None => return Err(EngineError::RecordMissing(outcome.txn)),
            }
        }
        Ok(out)
    }

    /// The read-only tree [`Engine::read`] submits for `keys`, with the
    /// deduplicated keys in first-occurrence order; `None` for no keys.
    fn read_plan(&self, keys: &[Key]) -> Result<Option<(Vec<Key>, TxnPlan)>, EngineError> {
        let mut unique: Vec<Key> = Vec::new();
        let mut by_node: BTreeMap<NodeId, Vec<Key>> = BTreeMap::new();
        for &k in keys {
            if unique.contains(&k) {
                continue;
            }
            let home = self.schema.home(k).ok_or(EngineError::UnknownKey(k))?;
            unique.push(k);
            by_node.entry(home).or_default().push(k);
        }
        if unique.is_empty() {
            return Ok(None);
        }
        // Root on the first key's home node; every other node becomes a
        // child subtransaction (order fixed by the BTreeMap for
        // determinism).
        let root_node = match self.schema.home(unique[0]) {
            Some(n) => n,
            None => return Err(EngineError::UnknownKey(unique[0])),
        };
        let mut root = SubtxnPlan::new(root_node);
        if let Some(ks) = by_node.remove(&root_node) {
            for k in ks {
                root = root.read(k);
            }
        }
        for (node, ks) in by_node {
            let mut sub = SubtxnPlan::new(node);
            for k in ks {
                sub = sub.read(k);
            }
            root = root.child(sub);
        }
        Ok(Some((unique, TxnPlan::read_only(root))))
    }

    /// One advancement round: ask every partition's coordinator and run
    /// the cluster until the round completes.
    pub fn trigger_advancement(&mut self) {
        self.cluster.trigger_advancement_all();
        self.cluster.run(SimTime::MAX);
        self.since_advance = 0;
        self.advancements += 1;
    }

    /// Server counters. `busy_rejections` belongs to the socket layer and
    /// is filled in there; the engine reports it as zero.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted,
            committed: self.committed,
            aborted: self.aborted,
            reads_served: self.reads_served,
            advancements: self.advancements,
            busy_rejections: 0,
            cross_messages: self.cluster.cross_messages(),
            virtual_now_us: self.cluster.now().0,
        }
    }

    /// Canonical dump of every node's committed store: `vu`/`vr` plus the
    /// full per-key version layouts, in global node order. Two engines
    /// that executed equivalent histories produce byte-identical dumps.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for id in self.cluster.node_ids() {
            let n = self.cluster.node(id);
            let _ = writeln!(out, "node {id:?} vu={:?} vr={:?}", n.vu(), n.vr());
            let mut keys: Vec<Key> = n.store().keys().collect();
            keys.sort_unstable();
            for k in keys {
                let _ = writeln!(out, "  {k:?} => {:?}", n.store().layout(k));
            }
        }
        out
    }

    /// `(fnv1a64(fingerprint), node count, total keys)` — the compact form
    /// shipped over the wire.
    pub fn fingerprint_hash(&self) -> (u64, u32, u64) {
        let dump = self.fingerprint();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in dump.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let ids = self.cluster.node_ids();
        let keys: u64 = ids
            .iter()
            .map(|&id| self.cluster.node(id).store().keys().count() as u64)
            .sum();
        (hash, ids.len() as u32, keys)
    }

    /// Direct access to the cluster (tests and the in-process driver).
    pub fn cluster(&self) -> &ShardedCluster {
        &self.cluster
    }

    /// Take `txn`'s finished record out of the cluster and move its reads
    /// into the outcome. Only called once the cluster is quiescent, which
    /// is [`ShardedCluster::take_finished`]'s precondition.
    fn outcome_of(&mut self, txn: TxnId) -> Result<TxnOutcome, EngineError> {
        let record = self
            .cluster
            .take_finished(txn)
            .ok_or(EngineError::RecordMissing(txn))?;
        Ok(TxnOutcome {
            txn,
            committed: record.status == TxnStatus::Committed,
            version: record.version,
            reads: record
                .reads
                .into_iter()
                .map(|o| ReadResult {
                    key: o.key,
                    version: o.version,
                    value: o.value,
                })
                .collect(),
        })
    }

    /// All partition ids, for callers iterating engine state.
    pub fn partitions(&self) -> Vec<PartitionId> {
        (0..self.cluster.n_partitions()).map(PartitionId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{KeyDecl, Topology, UpdateOp};

    fn schema(topo: Topology) -> Schema {
        let mut decls = Vec::new();
        for p in 0..topo.n_partitions() {
            for n in topo.nodes(PartitionId(p)) {
                decls.push(KeyDecl::counter(Key(u64::from(n.0)), n, 0));
                decls.push(KeyDecl::journal(Key(1_000 + u64::from(n.0)), n));
            }
        }
        Schema::new(decls)
    }

    fn engine(partitions: u16, nodes: u16) -> Engine {
        let cfg = ShardedConfig::new(partitions, nodes).seed(0xE1);
        let schema = schema(cfg.topology);
        Engine::new(&schema, cfg, 4)
    }

    #[test]
    fn submit_commits_and_reads_see_it_after_advancement() {
        let mut e = engine(2, 2);
        let topo = e.cluster().topology();
        let a = topo.nodes(PartitionId(0))[0];
        let b = topo.nodes(PartitionId(1))[1];
        let plan = TxnPlan::commuting(
            SubtxnPlan::new(a)
                .update(Key(u64::from(a.0)), UpdateOp::Add(5))
                .child(SubtxnPlan::new(b).update(Key(u64::from(b.0)), UpdateOp::Add(7))),
        );
        let out = e.submit(&plan).unwrap();
        assert!(out.committed);
        e.trigger_advancement();
        let reads = e.read(&[Key(u64::from(a.0)), Key(u64::from(b.0))]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].value.as_counter(), Some(5));
        assert_eq!(reads[1].value.as_counter(), Some(7));
        let stats = e.stats();
        assert_eq!(stats.submitted, 2); // update + read-only tree
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.reads_served, 1);
        assert!(stats.cross_messages > 0);
    }

    #[test]
    fn unknown_key_and_invalid_plan_are_reported() {
        let mut e = engine(1, 2);
        assert_eq!(
            e.read(&[Key(999_999)]),
            Err(EngineError::UnknownKey(Key(999_999)))
        );
        let empty = TxnPlan::commuting(SubtxnPlan::new(NodeId(0)));
        assert!(matches!(e.submit(&empty), Err(EngineError::Submit(_))));
        // Errors consume no sequence numbers or counters.
        assert_eq!(e.stats().submitted, 0);
    }

    #[test]
    fn duplicate_reads_are_served_once_in_request_order() {
        let mut e = engine(1, 2);
        let n0 = NodeId(0);
        let plan = TxnPlan::commuting(SubtxnPlan::new(n0).update(Key(0), UpdateOp::Add(3)));
        assert!(e.submit(&plan).unwrap().committed);
        e.trigger_advancement();
        let reads = e.read(&[Key(1), Key(0), Key(1)]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].key, Key(1));
        assert_eq!(reads[1].key, Key(0));
        assert_eq!(reads[1].value.as_counter(), Some(3));
    }

    #[test]
    fn advancement_cadence_fires_every_n_commits() {
        let mut e = engine(1, 1);
        let plan = TxnPlan::commuting(SubtxnPlan::new(NodeId(0)).update(Key(0), UpdateOp::Add(1)));
        for _ in 0..8 {
            assert!(e.submit(&plan).unwrap().committed);
        }
        // advance_every = 4 → two automatic rounds.
        assert_eq!(e.stats().advancements, 2);
    }

    /// Submit `plan` to `twin` the way the engine does, then run the
    /// `advanced` advancement rounds the engine ran after it.
    fn twin_step(twin: &mut ShardedCluster, seq: &mut u64, plan: &TxnPlan, advanced: u64) -> TxnId {
        let txn = twin.submit_external(*seq, plan, None).unwrap();
        *seq += 1;
        twin.run(SimTime::MAX);
        for _ in 0..advanced {
            twin.trigger_advancement_all();
            twin.run(SimTime::MAX);
        }
        txn
    }

    fn twin_record(twin: &ShardedCluster, txn: TxnId) -> &threev_analysis::TxnRecord {
        let p = twin.topology().partition_of(txn.origin);
        twin.partition_records(p)
            .iter()
            .find(|r| r.id == txn)
            .expect("the twin retains every record")
    }

    fn to_result(o: &threev_analysis::ReadObservation) -> ReadResult {
        ReadResult {
            key: o.key,
            version: o.version,
            value: o.value.clone(),
        }
    }

    fn twin_read(twin: &ShardedCluster, txn: TxnId, key: Key) -> ReadResult {
        to_result(
            twin_record(twin, txn)
                .reads
                .iter()
                .find(|o| o.key == key)
                .expect("the twin read every requested key"),
        )
    }

    /// The engine hands out every finished record and keeps none, and what
    /// it hands out is exactly what a twin cluster, driven by the same
    /// calls, retains.
    #[test]
    fn outcomes_match_a_retaining_twin_and_no_record_is_kept() {
        use threev_shard::ShardedHospital;
        use threev_workload::hospital::{balance_key, charges_key};
        use threev_workload::HospitalWorkload;

        let hospital = ShardedHospital::new(
            HospitalWorkload {
                departments: 4,
                patients: 32,
                rate_tps: 4_000.0,
                duration: threev_sim::SimDuration::from_millis(400),
                seed: 0x0C0,
                ..HospitalWorkload::default()
            },
            Topology::new(2, 2),
        );
        let schema = hospital.schema();
        let cfg = ShardedConfig::new(2, 2).seed(0xE2);
        let mut engine = Engine::new(&schema, cfg.clone(), 8);
        let mut twin = ShardedCluster::new(&schema, cfg, vec![Vec::new(); 2]);
        let mut twin_seq = 0;

        let mut submits: Vec<TxnOutcome> = Vec::new();
        let mut reads: Vec<(TxnId, Vec<Key>, Vec<ReadResult>)> = Vec::new();
        for (i, (_, plan)) in crate::load::schedule(&hospital).iter().enumerate() {
            let before = engine.stats().advancements;
            let out = engine.submit(plan).unwrap();
            let advanced = engine.stats().advancements - before;
            assert_eq!(twin_step(&mut twin, &mut twin_seq, plan, advanced), out.txn);
            submits.push(out);

            if i % 4 == 0 {
                let (dept, patient) = ((i / 4 % 4) as u16, (i % 32) as u64);
                let keys = [
                    charges_key(dept, patient),
                    balance_key(3 - dept, patient),
                    charges_key(dept, patient),
                ];
                let (unique, plan) = engine.read_plan(&keys).unwrap().unwrap();
                let before = engine.stats().advancements;
                let got = engine.read(&keys).unwrap();
                let advanced = engine.stats().advancements - before;
                let txn = twin_step(&mut twin, &mut twin_seq, &plan, advanced);
                reads.push((txn, unique, got));
            }
            if i % 97 == 96 {
                engine.trigger_advancement();
                twin.trigger_advancement_all();
                twin.run(SimTime::MAX);
            }
        }

        for p in engine.partitions() {
            assert!(
                engine.cluster().partition_records(p).is_empty(),
                "partition {p:?} kept records the engine already answered"
            );
        }
        assert!(submits.len() + reads.len() >= 1_500, "workload too small");
        assert_eq!(twin.records().len(), submits.len() + reads.len());
        assert_eq!(engine.cluster().now(), twin.now());
        assert_eq!(engine.cluster().cross_messages(), twin.cross_messages());

        for out in &submits {
            let rec = twin_record(&twin, out.txn);
            assert_ne!(rec.status, TxnStatus::InFlight);
            assert_eq!(out.committed, rec.status == TxnStatus::Committed);
            assert_eq!(out.version, rec.version);
            let expected: Vec<ReadResult> = rec.reads.iter().map(to_result).collect();
            assert_eq!(out.reads, expected, "reads of {:?}", out.txn);
        }
        for (txn, unique, got) in &reads {
            let expected: Vec<ReadResult> =
                unique.iter().map(|&k| twin_read(&twin, *txn, k)).collect();
            assert_eq!(got, &expected, "reads of {txn:?}");
        }
        // Vacuity guards: advancement ran, and the inquiries carried
        // journals with entries in them.
        assert!(engine.stats().advancements > 10);
        assert!(submits
            .iter()
            .flat_map(|o| &o.reads)
            .any(|r| r.value.as_journal().is_some_and(|j| !j.is_empty())));
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let build = || {
            let mut e = engine(2, 2);
            let topo = e.cluster().topology();
            let n = topo.nodes(PartitionId(0))[0];
            let plan = TxnPlan::commuting(
                SubtxnPlan::new(n).update(Key(u64::from(n.0)), UpdateOp::Add(2)),
            );
            e.submit(&plan).unwrap();
            e.trigger_advancement();
            e.fingerprint_hash()
        };
        assert_eq!(build(), build());
        let (_, nodes, keys) = build();
        assert_eq!(nodes, 4);
        assert!(keys > 0);
    }
}
