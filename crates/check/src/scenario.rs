//! The scenario catalogue: small, fixed 3V cluster configurations the
//! checker explores.
//!
//! Model checking is exponential in the event count, so scenarios are
//! deliberately tiny — two or three nodes, a handful of transactions, one
//! advancement — and each is aimed at a distinct slice of the protocol:
//! advancement phase boundaries, version skew across a multi-node
//! transaction, a crash spanning Phase 2, the NC3V gate. A schedule file
//! (see [`crate::schedule`]) names a scenario plus a seed, which together
//! pin the exact event set; the choice list then pins the interleaving.

use threev_core::client::Arrival;
use threev_core::cluster::{build_actors, build_partition_actors, ClusterActor, ClusterConfig};
use threev_core::msg::Msg;
use threev_core::node::DurabilityMode;
use threev_model::{
    Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, Topology, TxnPlan, UpdateOp,
};
use threev_sim::{LatencyModel, NodeCrash, SimDuration, SimTime, Simulation};

use crate::oracle::Oracle;

/// One checkable configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stable name, referenced by schedule files.
    pub name: &'static str,
    /// What this scenario is aimed at.
    pub about: &'static str,
    /// Database nodes *per partition*. With one partition (every legacy
    /// scenario) the actors are nodes `0..n`, coordinator `n`, client
    /// `n + 1`; sharded scenarios concatenate one such block per partition
    /// at the [`Topology`] strides.
    pub n_nodes: u16,
    /// Partitions hosted in the single checker kernel. `1` for every
    /// legacy scenario; sharded scenarios run all partitions' actors under
    /// one scheduler so cross-partition interleavings are explorable.
    pub partitions: u16,
    /// Does the scenario inject node crashes? (Disables the Def 3.2 skew
    /// check: a recovering node legitimately lags.)
    pub crashes: bool,
    /// Is the protocol deliberately broken? Sabotaged scenarios exist so
    /// tests can prove the checker *finds* bugs; exploration of them is
    /// expected to produce a violation, and they are excluded from the
    /// clean-sweep lists.
    pub sabotaged: bool,
}

/// Every scenario, sound and sabotaged.
pub const CATALOGUE: &[Scenario] = &[
    Scenario {
        name: "two-node-basic",
        about: "2 nodes, 2 cross-node updates, 1 read, 1 advancement (the CI exhaustive target)",
        n_nodes: 2,
        partitions: 1,
        crashes: false,
        sabotaged: false,
    },
    Scenario {
        name: "phase-boundaries",
        about: "updates and reads arriving across every advancement phase boundary",
        n_nodes: 2,
        partitions: 1,
        crashes: false,
        sabotaged: false,
    },
    Scenario {
        name: "skew-pair",
        about: "3 nodes, tree transactions landing on ahead/behind nodes mid-advancement (§2.3)",
        n_nodes: 3,
        partitions: 1,
        crashes: false,
        sabotaged: false,
    },
    Scenario {
        name: "crash-p2",
        about: "node 1 crashes inside Phase 2 and recovers from its in-memory WAL",
        n_nodes: 2,
        partitions: 1,
        crashes: true,
        sabotaged: false,
    },
    Scenario {
        name: "nc-gate",
        about: "NC3V transactions racing an advancement through the vu == vr + 1 gate (§5)",
        n_nodes: 2,
        partitions: 1,
        crashes: false,
        sabotaged: false,
    },
    Scenario {
        name: "skew-cross-partition",
        about: "2 partitions x 2 nodes, commuting trees crossing the partition boundary \
                 while both partitions advance independently",
        n_nodes: 2,
        partitions: 2,
        crashes: false,
        sabotaged: false,
    },
    Scenario {
        name: "p2-skip",
        about: "SABOTAGED: coordinator skips the Phase-2 drain (reverts §4.3's wait)",
        n_nodes: 2,
        partitions: 1,
        crashes: false,
        sabotaged: true,
    },
];

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    CATALOGUE.iter().find(|s| s.name == name)
}

/// The sound scenarios (exploration must find zero violations).
pub fn sound() -> impl Iterator<Item = &'static Scenario> {
    CATALOGUE.iter().filter(|s| !s.sabotaged)
}

fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

fn k(i: u64) -> Key {
    Key(i)
}

fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// Two-node schema: a balance counter and a charge journal per node
/// (the paper's hospital example, shrunk).
fn two_node_schema() -> Schema {
    Schema::new(vec![
        KeyDecl::counter(k(1), n(0), 0),
        KeyDecl::journal(k(11), n(0)),
        KeyDecl::counter(k(2), n(1), 0),
        KeyDecl::journal(k(12), n(1)),
    ])
}

/// A cross-node commuting update: charge `amount` on both nodes.
fn visit2(amount: i64, tag: u32) -> TxnPlan {
    TxnPlan::commuting(
        SubtxnPlan::new(n(0))
            .update(k(1), UpdateOp::Add(amount))
            .update(k(11), UpdateOp::Append { amount, tag })
            .child(
                SubtxnPlan::new(n(1))
                    .update(k(2), UpdateOp::Add(amount))
                    .update(k(12), UpdateOp::Append { amount, tag }),
            ),
    )
}

/// A cross-node read of both balances and journals.
fn inquiry2() -> TxnPlan {
    TxnPlan::read_only(
        SubtxnPlan::new(n(0))
            .read(k(1))
            .read(k(11))
            .child(SubtxnPlan::new(n(1)).read(k(2)).read(k(12))),
    )
}

impl Scenario {
    /// The partition layout of this scenario's cluster.
    pub fn topology(&self) -> Topology {
        Topology::new(self.partitions, self.n_nodes)
    }

    /// Total database nodes across every partition.
    pub fn total_nodes(&self) -> u16 {
        self.partitions * self.n_nodes
    }

    /// The oracle matching this scenario's fault profile and layout.
    pub fn oracle(&self) -> Oracle {
        Oracle {
            check_skew: !self.crashes,
            topology: self.topology(),
        }
    }

    /// Actor id of partition 0's advancement coordinator (the only one in
    /// single-partition scenarios).
    pub fn coordinator(&self) -> NodeId {
        self.topology().coordinator(PartitionId(0))
    }

    /// Actor id of partition 0's workload client.
    pub fn client(&self) -> NodeId {
        self.topology().client(PartitionId(0))
    }

    /// Build the simulation this scenario describes. `seed` feeds the
    /// kernel RNG; with the fixed-latency link model the event *set* is a
    /// pure function of `(scenario, seed)`, which is what makes recorded
    /// schedules replayable.
    pub fn build(&self, seed: u64) -> Simulation<ClusterActor> {
        if self.partitions > 1 {
            return self.build_sharded(seed);
        }
        let (schema, mut cfg, arrivals, triggers, faults) = match self.name {
            "phase-boundaries" => self.phase_boundaries(),
            "skew-pair" => self.skew_pair(),
            "crash-p2" => self.crash_p2(),
            "nc-gate" => self.nc_gate(),
            "p2-skip" => self.p2_skip(),
            // "two-node-basic" and any future default.
            _ => self.two_node_basic(),
        };
        cfg.sim.seed = seed;
        cfg.sim.latency = LatencyModel::Fixed(SimDuration::from_micros(200));
        cfg.sim.faults.crashes = faults;
        let actors = build_actors(&schema, &cfg, arrivals);
        let mut sim = Simulation::new(actors, cfg.sim.clone());
        for t in triggers {
            sim.inject_at(
                t,
                self.client(),
                self.coordinator(),
                Msg::TriggerAdvancement,
            );
        }
        sim
    }

    /// Build a multi-partition scenario: every partition's actor block
    /// (nodes, coordinator, client at the topology strides) hosted under
    /// **one** kernel, so the checker can interleave cross-partition
    /// deliveries exactly like local ones. This is the model-checking view
    /// of the sharded cluster — the production DES shuttle pins
    /// cross-partition latency instead, but the protocol messages are the
    /// same either way. Advancement triggers go to every coordinator.
    fn build_sharded(&self, seed: u64) -> Simulation<ClusterActor> {
        let topo = self.topology();
        let (schema, mut cfg, streams, triggers) = self.skew_cross_partition();
        cfg.sim.seed = seed;
        cfg.sim.latency = LatencyModel::Fixed(SimDuration::from_micros(200));
        let mut actors = Vec::new();
        for (p, stream) in streams.into_iter().enumerate() {
            actors.extend(build_partition_actors(
                &schema,
                &cfg,
                stream,
                PartitionId(p as u16),
            ));
        }
        let mut sim = Simulation::new(actors, cfg.sim.clone());
        for t in triggers {
            for p in 0..topo.n_partitions() {
                let pid = PartitionId(p);
                sim.inject_at(
                    t,
                    topo.client(pid),
                    topo.coordinator(pid),
                    Msg::TriggerAdvancement,
                );
            }
        }
        sim
    }

    #[allow(clippy::type_complexity)]
    fn two_node_basic(
        &self,
    ) -> (
        Schema,
        ClusterConfig,
        Vec<Arrival>,
        Vec<SimTime>,
        Vec<NodeCrash>,
    ) {
        let arrivals = vec![
            Arrival::at(ms(1), visit2(100, 1)),
            Arrival::at(ms(2), visit2(7, 2)),
            Arrival::at(ms(6), inquiry2()),
        ];
        (
            two_node_schema(),
            ClusterConfig::new(2),
            arrivals,
            vec![ms(3)],
            vec![],
        )
    }

    #[allow(clippy::type_complexity)]
    fn phase_boundaries(
        &self,
    ) -> (
        Schema,
        ClusterConfig,
        Vec<Arrival>,
        Vec<SimTime>,
        Vec<NodeCrash>,
    ) {
        // Updates keep arriving while the advancement walks its phases, so
        // reorderings can land a transaction on either side of every
        // boundary; reads bracket the whole window.
        let arrivals = vec![
            Arrival::at(ms(1), visit2(10, 1)),
            Arrival::at(ms(3), inquiry2()),
            Arrival::at(ms(4), visit2(20, 2)),
            Arrival::at(ms(6), visit2(30, 3)),
            Arrival::at(ms(9), inquiry2()),
        ];
        (
            two_node_schema(),
            ClusterConfig::new(2),
            arrivals,
            vec![ms(2)],
            vec![],
        )
    }

    #[allow(clippy::type_complexity)]
    fn skew_pair(
        &self,
    ) -> (
        Schema,
        ClusterConfig,
        Vec<Arrival>,
        Vec<SimTime>,
        Vec<NodeCrash>,
    ) {
        // Three nodes, transactions spanning all of them: during Phase 1
        // reordering puts subtransactions on nodes that are ahead of the
        // root (already switched vu) and behind it, exercising both §2.3
        // skew rules.
        let schema = Schema::new(vec![
            KeyDecl::counter(k(1), n(0), 0),
            KeyDecl::journal(k(11), n(0)),
            KeyDecl::counter(k(2), n(1), 0),
            KeyDecl::journal(k(12), n(1)),
            KeyDecl::counter(k(3), n(2), 0),
            KeyDecl::journal(k(13), n(2)),
        ]);
        let visit3 = |amount: i64, tag: u32, root: u16| {
            let others: Vec<u16> = (0..3).filter(|&i| i != root).collect();
            TxnPlan::commuting(
                SubtxnPlan::new(n(root))
                    .update(k(1 + root as u64), UpdateOp::Add(amount))
                    .update(k(11 + root as u64), UpdateOp::Append { amount, tag })
                    .child(
                        SubtxnPlan::new(n(others[0]))
                            .update(k(1 + others[0] as u64), UpdateOp::Add(amount))
                            .update(k(11 + others[0] as u64), UpdateOp::Append { amount, tag }),
                    )
                    .child(
                        SubtxnPlan::new(n(others[1]))
                            .update(k(1 + others[1] as u64), UpdateOp::Add(amount))
                            .update(k(11 + others[1] as u64), UpdateOp::Append { amount, tag }),
                    ),
            )
        };
        let read3 = TxnPlan::read_only(
            SubtxnPlan::new(n(0))
                .read(k(1))
                .read(k(11))
                .child(SubtxnPlan::new(n(1)).read(k(2)).read(k(12)))
                .child(SubtxnPlan::new(n(2)).read(k(3)).read(k(13))),
        );
        let arrivals = vec![
            Arrival::at(ms(1), visit3(5, 1, 0)),
            Arrival::at(ms(3), visit3(9, 2, 1)),
            Arrival::at(ms(7), read3),
        ];
        (schema, ClusterConfig::new(3), arrivals, vec![ms(2)], vec![])
    }

    #[allow(clippy::type_complexity)]
    fn crash_p2(
        &self,
    ) -> (
        Schema,
        ClusterConfig,
        Vec<Arrival>,
        Vec<SimTime>,
        Vec<NodeCrash>,
    ) {
        // Node 1 goes down at 4 ms — inside Phase 2 on the default
        // schedule, and reorderable across any phase by the checker — and
        // recovers from its in-memory WAL. The coordinator's retransmit
        // timer restores liveness for broadcasts lost to the dead window.
        let mut cfg = ClusterConfig::new(2).durability(DurabilityMode::Memory {
            checkpoint_every: 4,
        });
        cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
        let arrivals = vec![
            Arrival::at(ms(1), visit2(50, 1)),
            Arrival::at(ms(2), visit2(3, 2)),
            Arrival::at(ms(12), inquiry2()),
        ];
        let crashes = vec![NodeCrash {
            node: n(1),
            at: ms(4),
            restart_after: SimDuration::from_millis(3),
        }];
        (two_node_schema(), cfg, arrivals, vec![ms(3)], crashes)
    }

    #[allow(clippy::type_complexity)]
    fn nc_gate(
        &self,
    ) -> (
        Schema,
        ClusterConfig,
        Vec<Arrival>,
        Vec<SimTime>,
        Vec<NodeCrash>,
    ) {
        // Non-commuting assignments race an advancement: the vu == vr + 1
        // gate must hold them while the window is wide, and the lock table
        // must be clean afterwards.
        let schema = Schema::new(vec![
            KeyDecl::register(k(1), n(0), 0),
            KeyDecl::register(k(2), n(1), 0),
            KeyDecl::counter(k(3), n(1), 0),
        ]);
        let nc = |a: i64, b: i64| {
            TxnPlan::non_commuting(
                SubtxnPlan::new(n(0))
                    .update(k(1), UpdateOp::Assign(a))
                    .child(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Assign(b))),
            )
        };
        let noise = TxnPlan::commuting(SubtxnPlan::new(n(1)).update(k(3), UpdateOp::Add(1)));
        let read = TxnPlan::read_only(
            SubtxnPlan::new(n(0))
                .read(k(1))
                .child(SubtxnPlan::new(n(1)).read(k(2)).read(k(3))),
        );
        let arrivals = vec![
            Arrival::at(ms(1), nc(5, 6)),
            Arrival::at(ms(2), noise),
            Arrival::at(ms(4), nc(8, 9)),
            Arrival::at(ms(8), read),
        ];
        (
            schema,
            ClusterConfig::new(2).with_locks(),
            arrivals,
            vec![ms(3)],
            vec![],
        )
    }

    #[allow(clippy::type_complexity)]
    fn p2_skip(
        &self,
    ) -> (
        Schema,
        ClusterConfig,
        Vec<Arrival>,
        Vec<SimTime>,
        Vec<NodeCrash>,
    ) {
        // The planted bug: the coordinator publishes the new read version
        // without draining the old update version. A schedule that holds
        // back the visit's node-1 leg until after AdvanceRead and the
        // inquiry exposes a partial transaction to a committed read — the
        // paper's §1 motivating anomaly, which Phase 2 exists to prevent.
        let schema = Schema::new(vec![
            KeyDecl::journal(k(11), n(0)),
            KeyDecl::journal(k(12), n(1)),
        ]);
        let visit = TxnPlan::commuting(
            SubtxnPlan::new(n(0))
                .update(k(11), UpdateOp::Append { amount: 40, tag: 1 })
                .child(
                    SubtxnPlan::new(n(1)).update(k(12), UpdateOp::Append { amount: 40, tag: 1 }),
                ),
        );
        let inquiry = TxnPlan::read_only(
            SubtxnPlan::new(n(0))
                .read(k(11))
                .child(SubtxnPlan::new(n(1)).read(k(12))),
        );
        let mut cfg = ClusterConfig::new(2);
        cfg.protocol.coordinator.skip_p2_drain = true;
        let arrivals = vec![Arrival::at(ms(1), visit), Arrival::at(ms(3), inquiry)];
        (schema, cfg, arrivals, vec![ms(2)], vec![])
    }

    /// Two partitions of two nodes each. Commuting trees cross the
    /// partition boundary in both directions (one subtransaction per
    /// foreign partition — the gauge-counter unit), local trees skew the
    /// partitions internally, and both advancements run concurrently so
    /// reorderings can land a foreign child on either side of the peer's
    /// version switch. Reads stay partition-local: version numbers live in
    /// per-partition spaces, so only a within-partition read order is
    /// meaningful to the audit.
    #[allow(clippy::type_complexity)]
    fn skew_cross_partition(&self) -> (Schema, ClusterConfig, Vec<Vec<Arrival>>, Vec<SimTime>) {
        let topo = self.topology();
        let p0 = topo.nodes(PartitionId(0));
        let p1 = topo.nodes(PartitionId(1));
        let counter = |node: NodeId| k(1 + u64::from(node.0));
        let journal = |node: NodeId| k(11 + u64::from(node.0));
        let mut decls = Vec::new();
        for p in 0..topo.n_partitions() {
            for node in topo.nodes(PartitionId(p)) {
                decls.push(KeyDecl::counter(counter(node), node, 0));
                decls.push(KeyDecl::journal(journal(node), node));
            }
        }
        let schema = Schema::new(decls);
        let charge = |node: NodeId, amount: i64, tag: u32| {
            SubtxnPlan::new(node)
                .update(counter(node), UpdateOp::Add(amount))
                .update(journal(node), UpdateOp::Append { amount, tag })
        };
        let visit = |targets: &[NodeId], amount: i64, tag: u32| {
            let mut root = charge(targets[0], amount, tag);
            for &node in &targets[1..] {
                root = root.child(charge(node, amount, tag));
            }
            TxnPlan::commuting(root)
        };
        let local_read = |nodes: &[NodeId]| {
            let mut root = SubtxnPlan::new(nodes[0])
                .read(counter(nodes[0]))
                .read(journal(nodes[0]));
            for &node in &nodes[1..] {
                root = root.child(
                    SubtxnPlan::new(node)
                        .read(counter(node))
                        .read(journal(node)),
                );
            }
            TxnPlan::read_only(root)
        };
        let s0 = vec![
            // Cross-partition, rooted on P0, one foreign child on P1.
            Arrival::at(ms(1), visit(&[p0[0], p1[0]], 100, 1)),
            // Partition-local tree spanning both P0 nodes.
            Arrival::at(ms(2), visit(&[p0[0], p0[1]], 7, 2)),
            Arrival::at(ms(6), local_read(&p0)),
        ];
        let s1 = vec![
            // Cross-partition the other way, rooted on P1.
            Arrival::at(ms(2), visit(&[p1[0], p0[1]], 9, 3)),
            Arrival::at(ms(6), local_read(&p1)),
        ];
        let cfg = ClusterConfig::new(self.n_nodes).topology(topo);
        (schema, cfg, vec![s0, s1], vec![ms(3)])
    }
}

/// Snapshot every database node's invariant view, whatever the partition
/// layout: the actor vector is filtered for node variants rather than
/// sliced at a fixed prefix, so single-partition and sharded scenarios
/// share one accessor.
pub fn node_views(sim: &Simulation<ClusterActor>) -> Vec<threev_core::InvariantView> {
    sim.actors()
        .iter()
        .filter_map(|a| match a {
            ClusterActor::Node(node) => Some(node.invariant_view()),
            _ => None,
        })
        .collect()
}

/// Every client's transaction records, concatenated in actor (partition)
/// order. Sharded scenarios host one client per partition, so the result
/// is owned rather than a borrow of a single client's slice.
pub fn client_records(sim: &Simulation<ClusterActor>) -> Vec<threev_analysis::TxnRecord> {
    let mut out = Vec::new();
    for a in sim.actors() {
        if let ClusterActor::Client(c) = a {
            out.extend(c.records().iter().cloned());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_sim::QuiesceOutcome;

    #[test]
    fn every_scenario_builds_and_runs_clean_on_the_default_schedule() {
        for sc in sound() {
            let mut sim = sc.build(1);
            let out = sim.run_to_quiescence(SimTime::MAX);
            assert!(
                matches!(out, QuiesceOutcome::Quiescent(_)),
                "{} did not quiesce: {out:?}",
                sc.name
            );
            let views = node_views(&sim);
            assert_eq!(views.len(), sc.total_nodes() as usize, "{}", sc.name);
            let records = client_records(&sim);
            assert!(!records.is_empty(), "{}", sc.name);
            let viols = sc.oracle().check_quiescent(&views, &records);
            assert!(viols.is_empty(), "{}: {viols:?}", sc.name);
        }
    }

    #[test]
    fn catalogue_lookup() {
        assert!(find("two-node-basic").is_some());
        assert!(find("p2-skip").is_some_and(|s| s.sabotaged));
        assert!(find("skew-cross-partition").is_some_and(|s| s.partitions == 2));
        assert!(find("no-such").is_none());
        assert!(sound().all(|s| !s.sabotaged));
    }

    /// The sharded scenario really is sharded: both partitions host a
    /// client that commits work, the views span all four nodes, and the
    /// cross-partition trees land on both sides.
    #[test]
    fn cross_partition_scenario_spans_partitions() {
        let sc = find("skew-cross-partition").unwrap();
        let mut sim = sc.build(1);
        let out = sim.run_to_quiescence(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)), "{out:?}");
        let views = node_views(&sim);
        assert_eq!(views.len(), 4);
        // Every node executed at least one journal append: the cross trees
        // reached their foreign children.
        for v in &views {
            assert!(
                v.chain_lengths.iter().any(|&(_, len)| len >= 1),
                "node {} saw no writes",
                v.node
            );
        }
        let records = client_records(&sim);
        let topo = sc.topology();
        assert!(
            records
                .iter()
                .any(|r| topo.partition_of(r.id.origin) == threev_model::PartitionId(0)),
            "no transactions rooted on partition 0"
        );
        assert!(
            records
                .iter()
                .any(|r| topo.partition_of(r.id.origin) == threev_model::PartitionId(1)),
            "no transactions rooted on partition 1"
        );
    }
}
