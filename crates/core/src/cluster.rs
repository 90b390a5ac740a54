//! One-call construction of a simulated 3V cluster.
//!
//! Actor layout: database nodes occupy ids `0..n`, the advancement
//! coordinator is `n`, and the client (workload driver) is `n + 1`.

use threev_analysis::{TxnRecord, VersionTimeline};
use threev_model::{NodeId, PartitionId, Schema, Topology};
use threev_sim::{Actor, Ctx, QuiesceOutcome, SimConfig, SimStats, SimTime, Simulation, Trace};
use threev_storage::{BackendConfig, StoreStats};

use crate::advance::{AdvancementPolicy, AdvancementRecord, Coordinator, CoordinatorConfig};
use crate::client::{Arrival, ClientActor};
use crate::msg::Msg;
use crate::node::{DurabilityMode, NodeConfig, NodeStats, ThreeVNode};

/// Protocol-level configuration of a 3V cluster.
#[derive(Clone, Debug, Default)]
pub struct ThreeVConfig {
    /// Per-node settings (locks, retries).
    pub node: NodeConfig,
    /// Coordinator settings (advancement policy, polling).
    pub coordinator: CoordinatorConfig,
}

/// Full cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of database nodes.
    pub n_nodes: u16,
    /// Simulation kernel settings (latency model, seed, FIFO).
    pub sim: SimConfig,
    /// Protocol settings.
    pub protocol: ThreeVConfig,
}

impl ClusterConfig {
    /// Default configuration over `n_nodes` nodes.
    pub fn new(n_nodes: u16) -> Self {
        ClusterConfig {
            n_nodes,
            sim: SimConfig::default(),
            protocol: ThreeVConfig::default(),
        }
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Enable NC3V locking (required when the workload contains
    /// non-commuting transactions).
    #[must_use]
    pub fn with_locks(mut self) -> Self {
        self.protocol.node.locks_enabled = true;
        self
    }

    /// Set the advancement policy.
    #[must_use]
    pub fn advancement(mut self, policy: AdvancementPolicy) -> Self {
        self.protocol.coordinator.policy = policy;
        self
    }

    /// Set the per-node durability mode (WAL + checkpoints). Required for
    /// nodes to survive injected crashes with their state intact.
    #[must_use]
    pub fn durability(mut self, mode: DurabilityMode) -> Self {
        self.protocol.node.durability = mode;
        self
    }

    /// Set the storage backend every node keeps its version chains in
    /// (in-memory map by default; on-disk page files with
    /// [`BackendConfig::Paged`]).
    #[must_use]
    pub fn backend(mut self, backend: BackendConfig) -> Self {
        self.protocol.node.backend = backend;
        self
    }

    /// Set the partition layout every node consults to tell local from
    /// foreign peers. Only sharded constructions call this; the default
    /// [`Topology::single`] leaves all single-cluster paths untouched.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.protocol.node.topology = topology;
        self
    }
}

/// One actor of the cluster (dispatch enum).
#[allow(clippy::large_enum_variant)]
pub enum ClusterActor {
    /// A database node.
    Node(ThreeVNode),
    /// The advancement coordinator.
    Coordinator(Coordinator),
    /// The workload driver.
    Client(ClientActor<Msg>),
}

impl Actor for ClusterActor {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match self {
            ClusterActor::Node(_) => {}
            ClusterActor::Coordinator(c) => c.on_start(ctx),
            ClusterActor::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match self {
            ClusterActor::Node(n) => n.on_message(ctx, from, msg),
            ClusterActor::Coordinator(c) => c.on_message(ctx, from, msg),
            ClusterActor::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, batch: &mut Vec<(NodeId, Msg)>) {
        // Forward the whole batch so the inner actor's own `on_batch`
        // (not just the per-message default) sees it.
        match self {
            ClusterActor::Node(n) => n.on_batch(ctx, batch),
            ClusterActor::Coordinator(c) => c.on_batch(ctx, batch),
            ClusterActor::Client(c) => c.on_batch(ctx, batch),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match self {
            ClusterActor::Node(n) => n.on_timer(ctx, token),
            ClusterActor::Coordinator(c) => c.on_timer(ctx, token),
            ClusterActor::Client(c) => c.on_timer(ctx, token),
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Only database nodes have crash-injectable state; coordinator and
        // client crashes are out of scope for this reproduction.
        if let ClusterActor::Node(n) = self {
            n.on_crash(ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let ClusterActor::Node(n) = self {
            n.on_restart(ctx);
        }
    }
}

/// Build the raw actor vector of a 3V cluster: nodes `0..n`, coordinator
/// `n`, client `n + 1`. Used directly by the real-thread runtime, which
/// hosts each actor on its own thread.
pub fn build_actors(
    schema: &Schema,
    cfg: &ClusterConfig,
    arrivals: Vec<Arrival>,
) -> Vec<ClusterActor> {
    assert!(
        schema.n_nodes() <= cfg.n_nodes,
        "schema names node {} but cluster has {}",
        schema.n_nodes().saturating_sub(1),
        cfg.n_nodes
    );
    let mut actors: Vec<ClusterActor> = (0..cfg.n_nodes)
        .map(|i| {
            ClusterActor::Node(ThreeVNode::new(
                schema,
                NodeId(i),
                cfg.protocol.node.clone(),
            ))
        })
        .collect();
    actors.push(ClusterActor::Coordinator(Coordinator::new(
        cfg.n_nodes,
        cfg.protocol.coordinator.clone(),
    )));
    actors.push(ClusterActor::Client(ClientActor::new(arrivals)));
    actors
}

/// Build the actor block of one partition of a sharded cluster, in the
/// global id layout fixed by the config's [`Topology`]: the partition's
/// database nodes, then its advancement coordinator (restricted to exactly
/// those nodes), then its client driving `arrivals`. The caller hosts the
/// block at the topology's base offset (e.g. via
/// `Simulation::new_partition`), so actor `i` of the returned vector is
/// global actor `base(p) + i`.
///
/// `schema` is the *global* schema: every node picks out the keys homed on
/// its own global id, so all partitions share one schema value.
pub fn build_partition_actors(
    schema: &Schema,
    cfg: &ClusterConfig,
    arrivals: Vec<Arrival>,
    p: PartitionId,
) -> Vec<ClusterActor> {
    let topo = cfg.protocol.node.topology;
    assert!(
        p.0 < topo.n_partitions(),
        "partition {p} outside topology with {} partitions",
        topo.n_partitions()
    );
    let nodes = topo.nodes(p);
    let mut actors: Vec<ClusterActor> = nodes
        .iter()
        .map(|id| ClusterActor::Node(ThreeVNode::new(schema, *id, cfg.protocol.node.clone())))
        .collect();
    actors.push(ClusterActor::Coordinator(Coordinator::for_nodes(
        nodes,
        cfg.protocol.coordinator.clone(),
    )));
    actors.push(ClusterActor::Client(ClientActor::new(arrivals)));
    actors
}

/// A fully wired simulated 3V cluster.
pub struct ThreeVCluster {
    sim: Simulation<ClusterActor>,
    n_nodes: u16,
}

impl ThreeVCluster {
    /// Build a cluster over `schema` with the given workload arrivals.
    pub fn new(schema: &Schema, cfg: ClusterConfig, arrivals: Vec<Arrival>) -> Self {
        let actors = build_actors(schema, &cfg, arrivals);
        ThreeVCluster {
            sim: Simulation::new(actors, cfg.sim),
            n_nodes: cfg.n_nodes,
        }
    }

    /// Actor id of the coordinator.
    pub fn coordinator_id(&self) -> NodeId {
        NodeId(self.n_nodes)
    }

    /// Actor id of the client.
    pub fn client_id(&self) -> NodeId {
        NodeId(self.n_nodes + 1)
    }

    /// Enable trace recording (Table 1 replay).
    pub fn enable_trace(&mut self) {
        self.sim.enable_trace();
    }

    /// Take the recorded trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.sim.take_trace()
    }

    /// Run until quiescent (or the virtual-time cap).
    pub fn run(&mut self, cap: SimTime) -> QuiesceOutcome {
        self.sim.run_to_quiescence(cap)
    }

    /// Run all events up to `until` and stop there (mid-run inspection).
    pub fn run_until(&mut self, until: SimTime) {
        self.sim.run_until(until)
    }

    /// Ask the coordinator for one advancement now.
    pub fn trigger_advancement(&mut self) {
        let coord = self.coordinator_id();
        let client = self.client_id();
        self.sim.inject(client, coord, Msg::TriggerAdvancement);
    }

    /// Inject an arbitrary protocol message for delivery at an absolute
    /// virtual time (scripted replays — the Table 1 scenario).
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: Msg) {
        self.sim.inject_at(at, from, to, msg);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Kernel statistics (message counts by tag — experiment X9).
    pub fn sim_stats(&self) -> &SimStats {
        self.sim.stats()
    }

    /// Transaction records collected by the client, if the client slot is
    /// populated as constructed (fallible view for defensive callers).
    pub fn try_records(&self) -> Option<&[TxnRecord]> {
        match self.sim.actors().get(self.n_nodes as usize + 1)? {
            ClusterActor::Client(c) => Some(c.records()),
            _ => None,
        }
    }

    /// Transaction records collected by the client.
    pub fn records(&self) -> &[TxnRecord] {
        // lint-allow(panic-hygiene): actor slots are fixed at construction
        // (indices 0..n are nodes, n the coordinator, n+1 the client) and
        // never move; a mismatch is a harness-construction defect, not a
        // reachable protocol state. Fallible callers use `try_records`.
        self.try_records().expect("client occupies actor slot n+1")
    }

    /// A node's engine (read access), if slot `i` holds a node.
    pub fn try_node(&self, i: u16) -> Option<&ThreeVNode> {
        match self.sim.actors().get(i as usize)? {
            ClusterActor::Node(n) => Some(n),
            _ => None,
        }
    }

    /// A node's engine (read access).
    pub fn node(&self, i: u16) -> &ThreeVNode {
        // lint-allow(panic-hygiene): slots 0..n hold nodes by construction;
        // out-of-range `i` is a test/bench indexing bug. Fallible callers
        // use `try_node`.
        self.try_node(i).expect("node index within 0..n_nodes")
    }

    /// The coordinator (read access), if the coordinator slot is populated
    /// as constructed.
    pub fn try_coordinator(&self) -> Option<&Coordinator> {
        match self.sim.actors().get(self.n_nodes as usize)? {
            ClusterActor::Coordinator(c) => Some(c),
            _ => None,
        }
    }

    /// The coordinator (read access).
    pub fn coordinator(&self) -> &Coordinator {
        // lint-allow(panic-hygiene): slot n holds the coordinator by
        // construction. Fallible callers use `try_coordinator`.
        self.try_coordinator()
            .expect("coordinator occupies actor slot n")
    }

    /// Aggregated storage statistics across nodes.
    pub fn store_stats(&self) -> Vec<StoreStats> {
        (0..self.n_nodes)
            .map(|i| self.node(i).store_stats())
            .collect()
    }

    /// Aggregated protocol statistics across nodes.
    pub fn node_stats(&self) -> Vec<&NodeStats> {
        (0..self.n_nodes).map(|i| self.node(i).stats()).collect()
    }

    /// Completed advancement records.
    pub fn advancements(&self) -> &[AdvancementRecord] {
        self.coordinator().records()
    }

    /// The version timeline for staleness analysis.
    pub fn timeline(&self) -> &VersionTimeline {
        self.coordinator().timeline()
    }

    /// Highest number of simultaneously live versions of any item on any
    /// node, over the whole run (the paper's bound: ≤ 3).
    pub fn max_versions_high_water(&self) -> u32 {
        (0..self.n_nodes)
            .map(|i| self.node(i).store_stats().max_versions_of_any_item)
            .max()
            .unwrap_or(0)
    }

    /// Are all nodes quiescent (no in-flight protocol state)?
    pub fn all_quiescent(&self) -> bool {
        (0..self.n_nodes).all(|i| self.node(i).is_quiescent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advance::AdvancementPolicy;
    use threev_analysis::{Auditor, TxnStatus};
    use threev_model::{Key, KeyDecl, SubtxnPlan, TxnPlan, UpdateOp, Value, VersionNo};
    use threev_sim::SimDuration;

    fn k(i: u64) -> Key {
        Key(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    /// Hospital-style schema over three nodes: one balance counter and one
    /// charge journal per node.
    fn schema() -> Schema {
        Schema::new(vec![
            KeyDecl::counter(k(1), n(0), 0),
            KeyDecl::journal(k(11), n(0)),
            KeyDecl::counter(k(2), n(1), 0),
            KeyDecl::journal(k(12), n(1)),
            KeyDecl::counter(k(3), n(2), 0),
            KeyDecl::journal(k(13), n(2)),
        ]);
        // (constructed again below to avoid accidental reuse of moved value)
        Schema::new(vec![
            KeyDecl::counter(k(1), n(0), 0),
            KeyDecl::journal(k(11), n(0)),
            KeyDecl::counter(k(2), n(1), 0),
            KeyDecl::journal(k(12), n(1)),
            KeyDecl::counter(k(3), n(2), 0),
            KeyDecl::journal(k(13), n(2)),
        ])
    }

    /// A visit: root on node 0 charging nodes 0..=2.
    fn visit(amount: i64) -> TxnPlan {
        TxnPlan::commuting(
            SubtxnPlan::new(n(0))
                .update(k(1), UpdateOp::Add(amount))
                .update(k(11), UpdateOp::Append { amount, tag: 1 })
                .child(
                    SubtxnPlan::new(n(1))
                        .update(k(2), UpdateOp::Add(amount))
                        .update(k(12), UpdateOp::Append { amount, tag: 1 }),
                )
                .child(
                    SubtxnPlan::new(n(2))
                        .update(k(3), UpdateOp::Add(amount))
                        .update(k(13), UpdateOp::Append { amount, tag: 1 }),
                ),
        )
    }

    /// A balance inquiry across all three nodes.
    fn inquiry() -> TxnPlan {
        TxnPlan::read_only(
            SubtxnPlan::new(n(0))
                .read(k(1))
                .read(k(11))
                .child(SubtxnPlan::new(n(1)).read(k(2)).read(k(12)))
                .child(SubtxnPlan::new(n(2)).read(k(3)).read(k(13))),
        )
    }

    fn ms(x: u64) -> SimTime {
        SimTime(x * 1_000)
    }

    #[test]
    fn update_and_read_complete() {
        let arrivals = vec![
            Arrival::at(ms(1), visit(100)),
            Arrival::at(ms(50), inquiry()),
        ];
        let mut cluster = ThreeVCluster::new(&schema(), ClusterConfig::new(3), arrivals);
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        let records = cluster.records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
        // The update ran at version 1, the read at version 0.
        assert_eq!(records[0].version, Some(VersionNo(1)));
        assert_eq!(records[1].version, Some(VersionNo(0)));
        // The read saw version-0 data: zero balances, empty journals.
        for obs in &records[1].reads {
            match &obs.value {
                Value::Counter(c) => assert_eq!(*c, 0),
                Value::Journal(j) => assert!(j.is_empty()),
                v => panic!("unexpected value {v}"),
            }
        }
        assert!(cluster.all_quiescent());
    }

    #[test]
    fn reads_see_updates_after_advancement() {
        let arrivals = vec![
            Arrival::at(ms(1), visit(100)),
            Arrival::at(ms(200), inquiry()),
        ];
        let mut cluster = ThreeVCluster::new(&schema(), ClusterConfig::new(3), arrivals);
        // Let the update finish, then advance, then the read arrives.
        cluster.run_until(ms(100));
        cluster.trigger_advancement();
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        let records = cluster.records();
        assert_eq!(records[1].version, Some(VersionNo(1)));
        let total: i64 = records[1]
            .reads
            .iter()
            .filter_map(|o| o.value.as_counter())
            .sum();
        assert_eq!(total, 300, "all three charges visible");
        assert_eq!(cluster.advancements().len(), 1);
        let adv = &cluster.advancements()[0];
        assert!(adv.p2_rounds >= 2, "two-round rule implies >= 2 polls");
        assert!(adv.total().as_micros() > 0);
    }

    #[test]
    fn advancement_is_asynchronous_with_updates() {
        // Updates keep flowing while advancement runs; none is delayed.
        let mut arrivals: Vec<Arrival> =
            (0..200).map(|i| Arrival::at(ms(1 + i), visit(1))).collect();
        arrivals.push(Arrival::at(ms(400), inquiry()));
        let cfg = ClusterConfig::new(3).advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(20),
            period: SimDuration::from_millis(40),
        });
        let mut cluster = ThreeVCluster::new(&schema(), cfg, arrivals);
        // Periodic advancement re-arms forever, so run to a horizon instead
        // of quiescence and check the cluster drained.
        cluster.run_until(SimTime(60_000_000));
        assert!(cluster.all_quiescent());
        let records = cluster.records();
        assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
        assert!(cluster.advancements().len() >= 3);
        // 3V bound: never more than three versions of any item.
        assert!(cluster.max_versions_high_water() <= 3);
        // Audit: serializability holds in the presence of advancement.
        let report = Auditor::new(records).check();
        assert!(report.clean(), "{report:?}");
    }

    #[test]
    fn versions_bounded_and_gc_runs() {
        let arrivals: Vec<Arrival> = (0..50).map(|i| Arrival::at(ms(i), visit(1))).collect();
        let cfg = ClusterConfig::new(3).advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(5),
            period: SimDuration::from_millis(10),
        });
        let mut cluster = ThreeVCluster::new(&schema(), cfg, arrivals);
        cluster.run(SimTime(30_000_000));
        assert!(cluster.max_versions_high_water() <= 3);
        let gc_runs: u64 = cluster.store_stats().iter().map(|s| s.gc_runs).sum();
        assert!(gc_runs > 0, "gc must have run");
        // After quiesce + final GC, each node is down to <= 2 live versions.
        for i in 0..3 {
            assert!(cluster.node(i).store().current_max_versions() <= 2);
        }
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let arrivals: Vec<Arrival> =
                (0..40).map(|i| Arrival::at(ms(i * 3), visit(1))).collect();
            let cfg = ClusterConfig::new(3)
                .seed(99)
                .advancement(AdvancementPolicy::Periodic {
                    first: SimDuration::from_millis(13),
                    period: SimDuration::from_millis(29),
                });
            let mut cluster = ThreeVCluster::new(&schema(), cfg, arrivals);
            cluster.run(SimTime(20_000_000));
            (
                cluster.now(),
                cluster.sim_stats().messages,
                cluster.records().len(),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn compensation_erases_failed_transaction() {
        // Fail the node-2 leg of a visit; compensation must erase the
        // node-0 and node-1 effects.
        let arrivals = vec![
            Arrival::failing_at(ms(1), visit(100), n(2)),
            Arrival::at(ms(2), visit(7)), // a healthy one, same keys
        ];
        let mut cluster = ThreeVCluster::new(&schema(), ClusterConfig::new(3), arrivals);
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        let records = cluster.records();
        assert_eq!(records[0].status, TxnStatus::Aborted);
        assert_eq!(records[1].status, TxnStatus::Committed);
        // Current version (1) state: only the healthy visit's effects.
        for (node, counter_key, journal_key) in
            [(0u16, k(1), k(11)), (1, k(2), k(12)), (2, k(3), k(13))]
        {
            let store = cluster.node(node).store();
            let layout = store.layout(counter_key).unwrap();
            let (_, latest) = layout.last().unwrap();
            assert_eq!(latest.as_counter(), Some(7), "node {node} counter");
            let layout = store.layout(journal_key).unwrap();
            let (_, latest) = layout.last().unwrap();
            assert_eq!(
                latest.as_journal().unwrap().len(),
                1,
                "node {node} journal has only the healthy entry"
            );
        }
        // Counters balanced: advancement still possible after compensation.
        cluster.trigger_advancement();
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        assert_eq!(cluster.advancements().len(), 1);
    }

    #[test]
    fn non_commuting_transactions_commit_via_2pc() {
        let schema = Schema::new(vec![
            KeyDecl::register(k(1), n(0), 0),
            KeyDecl::register(k(2), n(1), 0),
        ]);
        let nc = TxnPlan::non_commuting(
            SubtxnPlan::new(n(0))
                .update(k(1), UpdateOp::Assign(5))
                .child(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Assign(6))),
        );
        let arrivals = vec![Arrival::at(ms(1), nc)];
        let cfg = ClusterConfig::new(2).with_locks();
        let mut cluster = ThreeVCluster::new(&schema, cfg, arrivals);
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        let records = cluster.records();
        assert_eq!(records[0].status, TxnStatus::Committed);
        let v1 = cluster.node(0).store().layout(k(1)).unwrap();
        assert_eq!(v1.last().unwrap().1.as_register(), Some(5));
        let v2 = cluster.node(1).store().layout(k(2)).unwrap();
        assert_eq!(v2.last().unwrap().1.as_register(), Some(6));
        assert!(cluster.all_quiescent());
        // Advancement drains NC counters too.
        cluster.trigger_advancement();
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        assert_eq!(cluster.advancements().len(), 1);
    }

    #[test]
    fn nc_gate_holds_during_advancement() {
        // An NC transaction submitted mid-advancement waits for the gate
        // and still commits.
        let schema = Schema::new(vec![
            KeyDecl::register(k(1), n(0), 0),
            KeyDecl::counter(k(2), n(1), 0),
        ]);
        let nc = TxnPlan::non_commuting(SubtxnPlan::new(n(0)).update(k(1), UpdateOp::Assign(9)));
        // Keep version 1 busy so phase 2 takes a while.
        let busy: Vec<Arrival> = (0..30)
            .map(|i| {
                Arrival::at(
                    ms(i),
                    TxnPlan::commuting(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Add(1))),
                )
            })
            .collect();
        let mut arrivals = busy;
        arrivals.push(Arrival::at(ms(6), nc));
        let cfg = ClusterConfig::new(2)
            .with_locks()
            .advancement(AdvancementPolicy::Periodic {
                first: SimDuration::from_millis(5),
                period: SimDuration::from_secs(1000),
            });
        let mut cluster = ThreeVCluster::new(&schema, cfg, arrivals);
        cluster.run_until(SimTime(30_000_000));
        assert!(cluster.all_quiescent());
        let records = cluster.records();
        assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
        let gated: u64 = cluster.node_stats().iter().map(|s| s.nc_gated).sum();
        assert!(gated >= 1, "the NC txn should have hit the gate");
    }
}
