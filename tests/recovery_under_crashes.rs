//! Property: crash-restart recovery preserves 3V correctness.
//!
//! A database node is crash-injected mid-advancement: its volatile state
//! (store, counters, version variables, in-flight bookkeeping) is dropped
//! and its inbox purged, then it restarts from its checkpoint plus WAL
//! tail ([`threev::durability`]). With coordinator retransmission enabled
//! and every node handler idempotent, the advancement must still complete
//! exactly once, the recovered node must catch up on `(vr, vu)` through
//! the paper's §2.3/§4.1 version-skew rules, and the final stores must be
//! byte-identical to a zero-fault run of the same seed.
//!
//! The crash instants are derived from the clean run's own
//! [`AdvancementRecord`] phase windows. That is sound because the crashed
//! run is schedule-identical to the clean run up to the crash instant:
//! crash events are injected at construction (a uniform sequence-number
//! shift that preserves relative order of ordinary events) and a
//! crashes-only fault plane draws nothing from either RNG stream — both
//! pinned by kernel/transport unit tests.
//!
//! [`AdvancementRecord`]: threev::core::advance::AdvancementRecord

use threev::analysis::TxnStatus;
use threev::core::advance::AdvancementPolicy;
use threev::core::client::Arrival;
use threev::core::cluster::{ClusterConfig, ThreeVCluster};
use threev::core::node::{DurabilityMode, ThreeVNode};
use threev::model::{
    Key, KeyDecl, NodeId, Schema, SubtxnPlan, TxnPlan, UpdateOp, Value, VersionNo,
};
use threev::shard::{ShardedCluster, ShardedConfig, ShardedHospital};
use threev::sim::{LatencyModel, NodeCrash, QuiesceOutcome, SimDuration, SimTime};
use threev::storage::BackendConfig;
use threev::workload::HospitalWorkload;

const N_NODES: u16 = 3;
/// The node that gets crash-injected (a participant, not the root).
const CRASHED: NodeId = NodeId(1);

fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

fn k(i: u64) -> Key {
    Key(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// Hospital-style schema: one balance counter and one charge journal per
/// node.
fn schema() -> Schema {
    Schema::new(vec![
        KeyDecl::counter(k(1), n(0), 0),
        KeyDecl::journal(k(11), n(0)),
        KeyDecl::counter(k(2), n(1), 0),
        KeyDecl::journal(k(12), n(1)),
        KeyDecl::counter(k(3), n(2), 0),
        KeyDecl::journal(k(13), n(2)),
    ])
}

/// A visit: root on node 0 charging all three nodes.
fn visit(amount: i64, tag: u32) -> TxnPlan {
    TxnPlan::commuting(
        SubtxnPlan::new(n(0))
            .update(k(1), UpdateOp::Add(amount))
            .update(k(11), UpdateOp::Append { amount, tag })
            .child(
                SubtxnPlan::new(n(1))
                    .update(k(2), UpdateOp::Add(amount))
                    .update(k(12), UpdateOp::Append { amount, tag }),
            )
            .child(
                SubtxnPlan::new(n(2))
                    .update(k(3), UpdateOp::Add(amount))
                    .update(k(13), UpdateOp::Append { amount, tag }),
            ),
    )
}

/// Data-plane traffic finishes well before the ms(30) advancement
/// trigger, so the crash hits a node with no in-flight subtransactions —
/// the in-doubt-transaction limitation documented in DESIGN.md.
fn arrivals() -> Vec<Arrival> {
    (0..20)
        .map(|i| Arrival::at(ms(i), visit(1 + i as i64 % 5, i as u32)))
        .collect()
}

/// Canonical per-node store image; journal entry order carries no meaning
/// for commuting appends, so entries are sorted.
fn store_image(node: &ThreeVNode) -> Vec<String> {
    let mut keys: Vec<Key> = node.store().keys().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| {
            let layout = node.store().layout(key).expect("key exists");
            let canon: Vec<String> = layout
                .into_iter()
                .map(|(v, value)| match value {
                    Value::Journal(mut entries) => {
                        entries.sort_by_key(|e| (e.txn, e.amount, e.tag));
                        format!("{v:?}:jrn{entries:?}")
                    }
                    other => format!("{v:?}:{other:?}"),
                })
                .collect();
            format!("{key:?} => {canon:?}")
        })
        .collect()
}

struct Outcome {
    stores: Vec<Vec<String>>,
    committed: usize,
    /// Coordinator-side phase boundaries: `[started, p1, p2, p3, p4]`.
    phase_marks: [SimTime; 5],
    recoveries: u64,
    wal_replayed: u64,
}

/// Shared configuration of the clean and crashed runs. Retransmission is
/// on in *both* (the prefix-identity argument needs identical configs up
/// to the crash list), and so is in-memory durability.
fn config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(N_NODES)
        .seed(seed)
        .advancement(AdvancementPolicy::Manual)
        .durability(DurabilityMode::Memory {
            checkpoint_every: 64,
        });
    cfg.sim.latency = LatencyModel::Uniform {
        min: SimDuration::from_micros(50),
        max: SimDuration::from_micros(150),
    };
    cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
    cfg
}

/// Run the workload, trigger one advancement at ms(30), and drive the
/// cluster to quiescence. `crashes` is empty for the clean reference run.
fn run(seed: u64, crashes: Vec<NodeCrash>) -> Outcome {
    run_on(seed, crashes, BackendConfig::Mem)
}

/// [`run`] with the version chains kept in `backend`.
fn run_on(seed: u64, crashes: Vec<NodeCrash>, backend: BackendConfig) -> Outcome {
    let crashed = !crashes.is_empty();
    let mut cfg = config(seed).backend(backend);
    cfg.sim.faults.crashes = crashes;
    let mut cluster = ThreeVCluster::new(&schema(), cfg, arrivals());
    cluster.run_until(ms(30));
    cluster.trigger_advancement();
    let out = cluster.run(SimTime(60_000_000_000));
    assert!(
        matches!(out, QuiesceOutcome::Quiescent(_)),
        "cluster failed to quiesce (seed {seed}, crashed {crashed}): {out:?}"
    );

    // Exactly one advancement, fully recorded, on every node — including
    // the one that lost its version variables mid-flight.
    assert_eq!(
        cluster.advancements().len(),
        1,
        "exactly one advancement must complete (seed {seed}, crashed {crashed})"
    );
    for i in 0..N_NODES {
        let node = cluster.node(i);
        assert_eq!(
            (node.vu(), node.vr()),
            (VersionNo(2), VersionNo(1)),
            "node {i} version window after advancement (seed {seed}, crashed {crashed})"
        );
        assert!(node.is_quiescent(), "node {i} left in-flight state");
    }
    assert!(cluster.max_versions_high_water() <= 3, "3V bound violated");

    let committed = cluster
        .records()
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count();
    assert_eq!(committed, arrivals().len(), "every visit commits");

    let rec = &cluster.advancements()[0];
    let crashed_stats = cluster.node(CRASHED.0).stats();
    Outcome {
        stores: (0..N_NODES).map(|i| store_image(cluster.node(i))).collect(),
        committed,
        phase_marks: [
            rec.started,
            rec.p1_done,
            rec.p2_done,
            rec.p3_done,
            rec.p4_done,
        ],
        recoveries: crashed_stats.recoveries,
        wal_replayed: crashed_stats.wal_replayed,
    }
}

/// Midpoint of the clean run's phase-`phase` window (1-based).
fn mid_phase(clean: &Outcome, phase: usize) -> SimTime {
    let (a, b) = (clean.phase_marks[phase - 1], clean.phase_marks[phase]);
    assert!(b > a, "phase {phase} window is empty: {a:?}..{b:?}");
    SimTime((a.0 + b.0) / 2)
}

/// Crash `CRASHED` at `at` for 3ms, then compare against the clean run.
/// Returns the number of WAL records the recovery replayed (zero is
/// legitimate when a checkpoint truncated the log just before the crash;
/// callers assert replay happened *somewhere* in aggregate).
fn check_crash_at(seed: u64, clean: &Outcome, at: SimTime, label: &str) -> u64 {
    let crashed = run(
        seed,
        vec![NodeCrash {
            node: CRASHED,
            at,
            restart_after: SimDuration::from_millis(3),
        }],
    );
    assert_eq!(clean.committed, crashed.committed, "{label} (seed {seed})");
    assert!(
        crashed.recoveries >= 1,
        "{label}: node {CRASHED} never recovered (seed {seed})"
    );
    for (i, (c, f)) in clean.stores.iter().zip(&crashed.stores).enumerate() {
        assert_eq!(
            c, f,
            "node {i} diverged after crash-restart ({label}, seed {seed})"
        );
    }
    crashed.wal_replayed
}

/// The acceptance gate: a node crashed mid-phase-2 (the counter-poll
/// phase, which is where durable counters matter most) restarts from
/// checkpoint + WAL, rejoins via version skew, and the stores converge —
/// across ten consecutive seeds.
#[test]
fn crash_mid_phase2_recovers_and_converges_ten_seeds() {
    let mut replayed = 0;
    for seed in 1..=10u64 {
        let clean = run(seed, Vec::new());
        replayed += check_crash_at(seed, &clean, mid_phase(&clean, 2), "mid-phase-2");
    }
    assert!(replayed > 0, "no seed exercised WAL-tail replay");
}

/// One crash per advancement phase (1–4) at a fixed seed: each run must
/// still complete the advancement exactly once and converge.
#[test]
fn crash_in_each_phase_converges() {
    let seed = 7u64;
    let clean = run(seed, Vec::new());
    for phase in 1..=4usize {
        let label = format!("mid-phase-{phase}");
        check_crash_at(seed, &clean, mid_phase(&clean, phase), &label);
    }
}

/// The §2.3 rejoin path specifically: crash the node across the *whole*
/// advancement (it is down when every phase-1/3 notice and retransmit
/// would arrive), so its recovered `(vu, vr)` is genuinely stale and the
/// catch-up must come from the coordinator's retransmits after restart.
#[test]
fn crash_spanning_advancement_rejoins_via_skew() {
    let seed = 11u64;
    let clean = run(seed, Vec::new());
    let start = clean.phase_marks[0];
    let crashed = run(
        seed,
        vec![NodeCrash {
            node: CRASHED,
            at: SimTime(start.0.saturating_sub(200)),
            restart_after: SimDuration::from_millis(4),
        }],
    );
    assert!(crashed.recoveries >= 1);
    assert_eq!(clean.stores, crashed.stores);
}

/// Paged-backend recovery: the crash drops the node's handle on its page
/// files, and restart reopens them and replays the WAL tail above their
/// durable LSN. A node crashed mid-phase-2 over page files must converge
/// to the same stores as the clean in-memory run.
#[test]
fn paged_crash_mid_phase2_recovers_and_converges() {
    let seed = 5u64;
    let clean = run(seed, Vec::new());
    let dir = std::env::temp_dir().join(format!("threev-paged-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crashed = run_on(
        seed,
        vec![NodeCrash {
            node: CRASHED,
            at: mid_phase(&clean, 2),
            restart_after: SimDuration::from_millis(3),
        }],
        BackendConfig::Paged { dir: dir.clone() },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(crashed.recoveries >= 1, "node {CRASHED} never recovered");
    assert_eq!(clean.committed, crashed.committed);
    assert_eq!(clean.stores, crashed.stores);
}

/// Incremental checkpoints: a paged checkpoint rewrites only the records
/// dirtied since the last flush, while a mem checkpoint serialises the
/// whole store. A 1-partition sharded hospital with a large roster and
/// `checkpoint_every` 64 runs on both backends: the backend must not change
/// what commits, and the paged checkpoint bytes must stay under half the
/// mem bytes. The first paged flush writes the whole store (schema
/// population dirties every record), so the window must hold enough
/// steady-state checkpoints to amortise it.
#[test]
fn paged_checkpoints_write_under_half_the_full_store_bytes() {
    const SEED: u64 = 0x57;
    const WINDOW_MS: u64 = 1_200;
    let base = HospitalWorkload {
        departments: 2,
        // Each checkpoint interval dirties a handful of (balance, charges)
        // pairs out of thousands of records per node.
        patients: 1_000,
        rate_tps: 1_000.0,
        read_pct: 10,
        max_fanout: 2,
        duration: SimDuration::from_millis(WINDOW_MS),
        zipf_s: 0.4,
        seed: SEED,
    };
    let hospital = ShardedHospital::new(base, ShardedConfig::new(1, 2).topology);
    let dir = std::env::temp_dir().join(format!("threev-paged-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |backend: BackendConfig| -> (usize, u64) {
        let cfg = ShardedConfig::new(1, 2)
            .seed(SEED)
            .advancement(AdvancementPolicy::Periodic {
                first: SimDuration::from_millis(20),
                period: SimDuration::from_millis(30),
            })
            .durability(DurabilityMode::Memory {
                checkpoint_every: 64,
            })
            .backend(backend);
        let mut cluster = ShardedCluster::new(&hospital.schema(), cfg, hospital.arrivals());
        // Periodic advancement re-arms forever: run to a horizon that
        // leaves a wide drain margin after the window.
        cluster.run_until(ms(2_000));
        let committed = cluster
            .records()
            .iter()
            .filter(|r| r.status == TxnStatus::Committed)
            .count();
        let bytes = cluster
            .node_ids()
            .into_iter()
            .map(|id| cluster.node(id).stats().checkpoint_bytes)
            .sum();
        (committed, bytes)
    };
    let (mem_committed, mem_bytes) = run(BackendConfig::Mem);
    let (paged_committed, paged_bytes) = run(BackendConfig::Paged { dir: dir.clone() });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(mem_committed > 100, "workload too small to be convincing");
    assert_eq!(
        mem_committed, paged_committed,
        "the backend changed what commits"
    );
    let ratio = paged_bytes as f64 / mem_bytes as f64;
    assert!(
        ratio < 0.5,
        "paged checkpoints wrote {paged_bytes} B against {mem_bytes} B full-store (ratio {ratio:.3})"
    );
}

/// CI recovery-matrix hook: pin the seed from the environment so the
/// matrix can sweep seeds without recompiling.
#[test]
fn crash_recovery_at_env_seed() {
    let seed = threev::testutil::fault_seed_or(0xFA17);
    let clean = run(seed, Vec::new());
    check_crash_at(seed, &clean, mid_phase(&clean, 2), "env-seed mid-phase-2");
}

/// Guard: durability and crash plumbing are observationally free when no
/// crash is injected — a WAL-enabled run and a durability-less run of the
/// same seed produce identical stores (logging draws no randomness and
/// sends no messages).
#[test]
fn durability_without_crashes_changes_nothing() {
    let seed = 3u64;
    let with_wal = run(seed, Vec::new());

    let mut cfg = config(seed);
    cfg.protocol.node.durability = DurabilityMode::None;
    let mut cluster = ThreeVCluster::new(&schema(), cfg, arrivals());
    cluster.run_until(ms(30));
    cluster.trigger_advancement();
    let out = cluster.run(SimTime(60_000_000_000));
    assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
    let plain: Vec<Vec<String>> = (0..N_NODES).map(|i| store_image(cluster.node(i))).collect();

    assert_eq!(with_wal.stores, plain);
    for i in 0..N_NODES {
        assert_eq!(cluster.node(i).stats().wal_records, 0);
        assert_eq!(cluster.node(i).stats().recoveries, 0);
    }
}
