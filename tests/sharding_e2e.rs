//! End-to-end property: cross-partition transaction trees are atomic.
//!
//! A sharded cluster executes commuting trees whose children land on
//! foreign partitions. Whatever the network does on the *control plane*
//! (each partition's coordinator↔node links suffer 20% loss, duplication,
//! delay spikes, and a paused node — the same plane as
//! `advancement_under_faults`), a cross-partition tree must commit on
//! **all** partitions or on **none**: a committed visit's journal entry is
//! present on every node it charged, an aborted visit's on none. Each
//! partition's advancement still completes exactly once, and the faulty
//! run converges to the stores of a zero-fault run with the same seed.
//!
//! Faults are scoped to the control plane only; the data plane (including
//! the inter-partition shuttle) stays reliable, matching the paper's §6
//! delegation of update delivery to the network layer.
//!
//! Advancement is also partition-local in cost: each partition pays the
//! same advancement messages whatever the cluster size, and cross-partition
//! trees add shuttle traffic but no advancement messages
//! (`advancement_cost_per_partition_is_independent_of_cluster_size`).

use threev::analysis::TxnStatus;
use threev::core::advance::AdvancementPolicy;
use threev::core::client::Arrival;
use threev::core::node::ThreeVNode;
use threev::model::{
    Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, Topology, TxnPlan, UpdateOp, Value,
    VersionNo,
};
use threev::shard::{ShardOutcome, ShardedCluster, ShardedConfig, ShardedHospital};
use threev::sim::{FaultPlane, FaultScope, LatencyModel, NodePause, SimDuration, SimTime};
use threev::workload::HospitalWorkload;

/// 2 partitions x 2 nodes: P0 = {0, 1} (coord 2), P1 = {4, 5} (coord 6).
fn topology() -> Topology {
    Topology::new(2, 2)
}

fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

/// One balance counter and one charge journal per global node.
fn schema(topo: &Topology) -> Schema {
    let mut decls = Vec::new();
    for p in 0..topo.n_partitions() {
        for node in topo.nodes(PartitionId(p)) {
            decls.push(KeyDecl::counter(Key(u64::from(node.0)), node, 0));
            decls.push(KeyDecl::journal(Key(1_000 + u64::from(node.0)), node));
        }
    }
    Schema::new(decls)
}

/// A visit charging each node of `targets` (root = first target).
fn visit(targets: &[NodeId], amount: i64, tag: u32) -> TxnPlan {
    let charge = |node: NodeId| {
        SubtxnPlan::new(node)
            .update(Key(u64::from(node.0)), UpdateOp::Add(amount))
            .update(
                Key(1_000 + u64::from(node.0)),
                UpdateOp::Append { amount, tag },
            )
    };
    let mut root = charge(targets[0]);
    for &node in &targets[1..] {
        root = root.child(charge(node));
    }
    TxnPlan::commuting(root)
}

/// The workload: cross-partition visits rooted on each side, local visits
/// on both, and one cross-partition visit that aborts on its foreign leg.
/// Tags are unique per transaction, so journal entries identify their
/// writer.
fn arrivals(topo: &Topology) -> Vec<Vec<Arrival>> {
    let p0 = topo.nodes(PartitionId(0));
    let p1 = topo.nodes(PartitionId(1));
    let mut s0 = Vec::new();
    let mut s1 = Vec::new();
    let mut tag = 0u32;
    for i in 0..10u64 {
        // Cross-partition: rooted on P0, charging one node of each side.
        s0.push(Arrival::at(ms(1 + i), visit(&[p0[0], p1[1]], 2, tag)));
        tag += 1;
        // Cross-partition the other way.
        s1.push(Arrival::at(ms(2 + i), visit(&[p1[0], p0[1]], 3, tag)));
        tag += 1;
        // Partition-local traffic on both sides.
        s0.push(Arrival::at(ms(3 + i), visit(&[p0[1]], 1, tag)));
        tag += 1;
        s1.push(Arrival::at(ms(3 + i), visit(&[p1[1]], 1, tag)));
        tag += 1;
    }
    // The doomed tree: aborts on its foreign (P1) leg, must compensate on
    // both partitions.
    s0.push(Arrival::failing_at(
        ms(8),
        visit(&[p0[0], p1[0]], 100, ABORT_TAG),
        p1[0],
    ));
    vec![s0, s1]
}

const ABORT_TAG: u32 = 9_999;

/// Every coordinator↔node link of every partition, both directions.
fn control_plane_links(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    (0..topo.n_partitions())
        .flat_map(|p| {
            let pid = PartitionId(p);
            let coord = topo.coordinator(pid);
            topo.nodes(pid)
                .into_iter()
                .flat_map(move |n| [(coord, n), (n, coord)])
        })
        .collect()
}

/// The fault plane under test: `drop_ppm` loss + 10% duplication + 5%
/// delay spikes on every control-plane link, and one DB node of P1 paused
/// over the advancement trigger.
fn plane(topo: &Topology, drop_ppm: u32) -> FaultPlane {
    FaultPlane {
        drop_ppm,
        dup_ppm: 100_000,
        delay_ppm: 50_000,
        scope: FaultScope::Links(control_plane_links(topo)),
        pauses: vec![NodePause {
            node: topo.nodes(PartitionId(1))[0],
            from: ms(10),
            until: ms(50),
        }],
        ..FaultPlane::default()
    }
}

/// Canonical image of the *newest* version of every key on a node.
///
/// Unlike the single-partition fault suite, the full version layout is not
/// fault-invariant here: version numbers live in per-partition spaces, so
/// a subtransaction stalled (by a pause) past a foreign partition's
/// advancement legitimately lands in that partition's next version. What
/// must be invariant is the content the run converges to — the newest
/// version's value per key. Journal entries are sorted (commuting appends
/// carry no meaningful order).
fn store_image(node: &ThreeVNode) -> Vec<String> {
    let mut keys: Vec<Key> = node.store().keys().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| {
            let layout = node.store().layout(key).expect("key exists");
            let newest = layout.into_iter().last().map(|(_, value)| match value {
                Value::Journal(mut entries) => {
                    entries.sort_by_key(|e| (e.txn, e.amount, e.tag));
                    format!("jrn{entries:?}")
                }
                other => format!("{other:?}"),
            });
            format!("{key:?} => {newest:?}")
        })
        .collect()
}

struct Outcome {
    stores: Vec<Vec<String>>,
    committed: usize,
}

/// Tags of journal entries currently visible on `node` (any version).
fn visible_tags(node: &ThreeVNode) -> Vec<u32> {
    let mut tags = Vec::new();
    for key in node.store().keys() {
        if let Some(layout) = node.store().layout(key) {
            for (_, value) in layout {
                if let Value::Journal(entries) = value {
                    tags.extend(entries.iter().map(|e| e.tag));
                }
            }
        }
    }
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// Run the workload, trigger one advancement per partition mid-pause, and
/// drive the cluster to quiescence. `faults == None` is the clean
/// reference run.
fn run(seed: u64, faults: Option<FaultPlane>) -> Outcome {
    let topo = topology();
    let faulty = faults.is_some();
    let mut cfg = ShardedConfig::new(2, 2)
        .seed(seed)
        .advancement(AdvancementPolicy::Manual);
    cfg.sim.latency = LatencyModel::Uniform {
        min: SimDuration::from_micros(50),
        max: SimDuration::from_micros(150),
    };
    if let Some(fault_plane) = faults {
        cfg.sim.faults = fault_plane;
        // Retransmit buys liveness on the lossy control plane.
        cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
    }
    let schema = schema(&topo);
    let mut cluster = ShardedCluster::new(&schema, cfg, arrivals(&topo));
    cluster.run_until(ms(30));
    cluster.trigger_advancement_all();
    let out = cluster.run(SimTime(60_000_000_000));
    assert!(
        matches!(out, ShardOutcome::Quiescent(_)),
        "cluster failed to quiesce (seed {seed}, faulty {faulty}): {out:?}"
    );
    assert!(
        cluster.cross_messages() > 0,
        "workload must cross partitions"
    );

    if faulty {
        let dropped: u64 = (0..2)
            .map(|p| cluster.sim_stats(PartitionId(p)).dropped)
            .sum();
        assert!(dropped > 0, "fault plane must actually drop (seed {seed})");
    }

    // Exactly one advancement per partition, fully recorded on its nodes.
    for p in 0..2 {
        let pid = PartitionId(p);
        assert_eq!(
            cluster.advancements(pid).len(),
            1,
            "partition {p} advancement count (seed {seed}, faulty {faulty})"
        );
        for node in topo.nodes(pid) {
            let engine = cluster.node(node);
            assert_eq!(
                (engine.vu(), engine.vr()),
                (VersionNo(2), VersionNo(1)),
                "node {node} version window (seed {seed}, faulty {faulty})"
            );
            assert!(engine.is_quiescent(), "node {node} left in-flight state");
        }
    }
    assert!(cluster.max_versions_high_water() <= 3, "3V bound violated");

    // All-or-none across partitions, by journal tag: every committed
    // visit's tag is visible on every node it charged; the aborted visit's
    // tag is visible nowhere.
    let records = cluster.records();
    let committed = records
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count();
    assert_eq!(
        committed,
        records.len() - 1,
        "exactly the doomed visit aborts (seed {seed}, faulty {faulty})"
    );
    for node in [topo.nodes(PartitionId(0))[0], topo.nodes(PartitionId(1))[0]] {
        let tags = visible_tags(cluster.node(node));
        assert!(
            !tags.contains(&ABORT_TAG),
            "aborted tree left a trace on node {node} (seed {seed}, faulty {faulty})"
        );
    }

    let stores = (0..2)
        .flat_map(|p| topo.nodes(PartitionId(p)))
        .map(|n| store_image(cluster.node(n)))
        .collect();
    Outcome { stores, committed }
}

/// One seed, one loss rate: the faulty run must converge to the clean
/// run's stores on every node of every partition.
fn check(seed: u64, drop_ppm: u32) {
    let clean = run(seed, None);
    let faulty = run(seed, Some(plane(&topology(), drop_ppm)));
    assert_eq!(clean.committed, faulty.committed);
    for (i, (c, f)) in clean.stores.iter().zip(&faulty.stores).enumerate() {
        assert_eq!(
            c, f,
            "node {i} diverged under faults (seed {seed}, drop {drop_ppm}ppm)"
        );
    }
}

/// The acceptance gate: cross-partition trees stay atomic at 20%
/// control-plane loss, on five consecutive seeds.
#[test]
fn cross_partition_trees_atomic_at_20pct_loss() {
    for seed in 1..=5u64 {
        check(seed, 200_000);
    }
}

#[test]
fn cross_partition_trees_atomic_at_5pct_loss() {
    for seed in 1..=3u64 {
        check(seed, 50_000);
    }
}

/// CI fault-matrix hook: seed pinned from `THREEV_FAULT_SEED`.
#[test]
fn cross_partition_trees_atomic_at_env_seed() {
    let seed = threev::testutil::fault_seed_or(0x5A4D);
    check(seed, 200_000);
}

/// No-fault determinism across the shuttle: same seed, same everything.
#[test]
fn sharded_replay_is_deterministic() {
    let a = run(0xD7, None);
    let b = run(0xD7, None);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.stores, b.stores);
}

/// The CI 4-partition smoke: the hospital workload spread over a 4x2
/// topology commits work rooted on every partition, every partition
/// advances, and confinement controls cross traffic exactly (zero when
/// trees are pruned to their root partition, nonzero otherwise).
#[test]
fn four_partition_hospital_smoke() {
    let base = HospitalWorkload {
        departments: 8,
        patients: 64,
        rate_tps: 500.0,
        read_pct: 10,
        max_fanout: 2,
        duration: SimDuration::from_millis(40),
        zipf_s: 0.9,
        seed: 0x5A,
    };
    for confined in [true, false] {
        let cfg = ShardedConfig::new(4, 2)
            .seed(0x5A)
            .advancement(AdvancementPolicy::Periodic {
                first: SimDuration::from_millis(20),
                period: SimDuration::from_millis(30),
            });
        let mut hospital = ShardedHospital::new(base.clone(), cfg.topology);
        if confined {
            hospital = hospital.confined();
        }
        let mut cluster = ShardedCluster::new(&hospital.schema(), cfg, hospital.arrivals());
        cluster.run_until(SimTime(200_000));

        let records = cluster.records();
        for p in 0..4 {
            let pid = PartitionId(p);
            let committed_here = records
                .iter()
                .filter(|r| r.status == TxnStatus::Committed)
                .filter(|r| hospital.topology.partition_of(r.id.origin) == pid)
                .count();
            assert!(
                committed_here > 0,
                "partition {p} committed nothing (confined {confined})"
            );
            assert!(
                !cluster.advancements(pid).is_empty(),
                "partition {p} never advanced (confined {confined})"
            );
        }
        assert!(cluster.max_versions_high_water() <= 3, "3V bound violated");
        if confined {
            assert_eq!(
                cluster.cross_messages(),
                0,
                "confined run crossed partitions"
            );
        } else {
            assert!(cluster.cross_messages() > 0, "unconfined run never crossed");
        }
    }
}

/// Per-partition advancement cost of one sharded hospital run.
struct AdvancementCost {
    /// Advance-tagged messages each partition's transport carried.
    messages: Vec<u64>,
    /// Advancements each partition completed.
    advancements: Vec<usize>,
    /// Messages the inter-partition shuttle carried.
    cross: u64,
}

/// The hospital at a constant per-partition load (250 tps, 50 patients,
/// 2 nodes per partition) over `partitions` partitions, with trees pruned
/// to their root partition when `confined`.
fn advancement_cost(partitions: u16, confined: bool) -> AdvancementCost {
    const NODES: u16 = 2;
    let base = HospitalWorkload {
        departments: partitions * NODES,
        patients: 50 * u64::from(partitions),
        rate_tps: 250.0 * f64::from(partitions),
        read_pct: 10,
        max_fanout: 2,
        duration: SimDuration::from_millis(50),
        zipf_s: 0.9,
        seed: 0x5A,
    };
    let cfg = ShardedConfig::new(partitions, NODES)
        .seed(0x5A)
        .advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(20),
            period: SimDuration::from_millis(30),
        });
    let mut hospital = ShardedHospital::new(base, cfg.topology);
    if confined {
        hospital = hospital.confined();
    }
    let mut cluster = ShardedCluster::new(&hospital.schema(), cfg, hospital.arrivals());
    cluster.run_until(SimTime(250_000));
    let mut cost = AdvancementCost {
        messages: Vec::new(),
        advancements: Vec::new(),
        cross: cluster.cross_messages(),
    };
    for p in 0..partitions {
        let pid = PartitionId(p);
        let advancements = cluster.advancements(pid);
        let messages = cluster.sim_stats(pid).tagged("advance");
        // Every broadcast step of a round (start, each phase-2 poll, read
        // switch, each phase-4 poll, GC) is one request and one reply per
        // node, so the message count follows from the poll counts alone.
        let steps: u64 = advancements
            .iter()
            .map(|a| 3 + a.p2_rounds + a.p4_rounds)
            .sum();
        assert_eq!(
            messages,
            2 * u64::from(NODES) * steps,
            "partition {p} sent advancement messages beyond its rounds"
        );
        cost.messages.push(messages);
        cost.advancements.push(advancements.len());
    }
    cost
}

/// Advancement is partition-local: with disjoint keys, every partition of
/// a 4-partition cluster pays exactly the advancement messages and rounds
/// of a 1-partition cluster at the same per-partition load, and nothing
/// crosses partitions. Cross-partition trees add shuttle traffic but leave
/// each partition's advancement messages unchanged.
#[test]
fn advancement_cost_per_partition_is_independent_of_cluster_size() {
    let one = advancement_cost(1, true);
    assert_eq!(one.cross, 0);
    assert!(one.advancements[0] > 1, "too few advancements to compare");

    let disjoint = advancement_cost(4, true);
    assert_eq!(disjoint.cross, 0, "disjoint keys crossed partitions");
    assert_eq!(disjoint.messages, vec![one.messages[0]; 4]);
    assert_eq!(disjoint.advancements, vec![one.advancements[0]; 4]);

    let cross = advancement_cost(4, false);
    assert!(cross.cross > 0, "cross trees never crossed partitions");
    assert_eq!(cross.messages, disjoint.messages);
}
