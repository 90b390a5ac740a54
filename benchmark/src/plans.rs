//! The seven workloads and their seeded plan lists.
//!
//! Everything here is a pure function of `(workload, seed, seconds)`: the
//! program under test receives only the generated plans. Generators write
//! plans against logical node ids `0..n`; [`rehome`] moves them onto a
//! [`Topology`] block layout with `TxnPlan::map_nodes`, the way
//! `ShardedHospital` does, so one logical list can be run on the
//! workload's own topology and on its single-partition twin.

use std::path::Path;

use threev_core::client::Arrival;
use threev_core::node::{BackendConfig, DurabilityMode};
use threev_model::{NodeId, PartitionId, Schema, Topology, TxnPlan};
use threev_shard::ShardedConfig;
use threev_sim::SimDuration;
use threev_workload::{HospitalWorkload, RetailWorkload, SyntheticParams, SyntheticWorkload};

/// Commit cadence of automatic version advancement, on every workload.
pub const ADVANCE_EVERY: u64 = 32;
/// WAL records between a node's checkpoints on the durable workload. At
/// the 64 the issue proposed, a third of the updates carry a checkpoint's
/// fsync and the median sits on the edge between the two kinds (422-722 us
/// over ten seeds); at 512 about 4 % do, so p50 is the append path and p99
/// the checkpoint path, and both are steady.
pub const CHECKPOINT_EVERY: usize = 512;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Loopback TCP against an in-process `threev_server::serve`, open loop.
    Tcp,
    /// `Engine::submit` called in-process from one thread, closed loop.
    Embedded,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// `LoadConfig::hospital()`'s shape: 64 patients, 20 % inquiries,
    /// zipf 0.9, fan-out ≤ 3; counters and journals.
    Hospital,
    /// Counters only: 1024 keys/node, 2 ops/subtxn, 20 % reads, zipf 0.8.
    Synthetic { fanout_min: u16, fanout_max: u16 },
    /// 300 products, 15 % audits, 25 % price changes (non-commuting),
    /// zipf 1.1.
    Retail,
}

/// How many plans a run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Size {
    /// The Poisson schedule at `rate_tps` over the run's `--seconds`.
    RateTimesSeconds,
    /// Exactly this many plans, whatever `--seconds` is.
    Fixed(usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub transport: Transport,
    pub partitions: u16,
    pub nodes_per_partition: u16,
    pub mix: Mix,
    pub size: Size,
    /// Offered rate on TCP; on embedded only the hospital schedule uses it.
    pub rate_tps: f64,
    /// NC3V lock table on (needed by non-commuting transactions).
    pub locks: bool,
    /// File WAL + paged backend instead of memory and no durability.
    pub durable: bool,
    /// Offered rates of the traced rate ladder (TCP only; empty = none).
    pub ladder_tps: &'static [f64],
    pub why: &'static str,
}

const XPART: Mix = Mix::Synthetic {
    fanout_min: 3,
    fanout_max: 4,
};

/// Embedded workloads first: a run that has just built the program starts
/// while the sandbox still throttles thread wake-ups (two saturated cores
/// for ~20 s cost the next ~5 s a 3x slower loopback round trip), which a
/// single-threaded run does not feel and a TCP run does.
pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "hospital_embedded",
        transport: Transport::Embedded,
        partitions: 4,
        nodes_per_partition: 2,
        mix: Mix::Hospital,
        size: Size::RateTimesSeconds,
        rate_tps: 3000.0,
        locks: false,
        durable: false,
        ladder_tps: &[],
        why: "the same plans as hospital_tcp with sockets bypassed: journal-value cloning and store growth dominate; an engine gain moves this and not hospital_tcp",
    },
    Spec {
        name: "xpart_embedded",
        transport: Transport::Embedded,
        partitions: 4,
        nodes_per_partition: 2,
        mix: XPART,
        size: Size::Fixed(100_000),
        rate_tps: 10_000.0,
        locks: false,
        durable: false,
        ladder_tps: &[],
        why: "~6 cross-partition messages per transaction in steady state: message construction, shard shuttle, counters and advancement dominate",
    },
    Spec {
        name: "local_embedded",
        transport: Transport::Embedded,
        partitions: 4,
        nodes_per_partition: 2,
        mix: Mix::Synthetic {
            fanout_min: 1,
            fanout_max: 1,
        },
        size: Size::Fixed(200_000),
        rate_tps: 10_000.0,
        locks: false,
        durable: false,
        ladder_tps: &[],
        why: "bypass twin of xpart_embedded with fan-out 1: zero inter-node messages isolate the per-command fixed cost; a message-path change must not move it",
    },
    Spec {
        name: "retail_nc_embedded",
        transport: Transport::Embedded,
        partitions: 1,
        nodes_per_partition: 4,
        mix: Mix::Retail,
        size: Size::Fixed(60_000),
        rate_tps: 10_000.0,
        locks: true,
        durable: false,
        ladder_tps: &[],
        why: "1x4 with locks and 25 % non-commuting price changes: exclusive locks, 2PC and the vu == vr+1 gate; a commuting-path gain that costs NC3V shows here",
    },
    Spec {
        name: "hospital_tcp",
        transport: Transport::Tcp,
        partitions: 4,
        nodes_per_partition: 2,
        mix: Mix::Hospital,
        size: Size::RateTimesSeconds,
        rate_tps: 3000.0,
        locks: false,
        durable: false,
        ladder_tps: &[],
        why: "canonical 4x2 hospital over loopback TCP at 3000 tps: ~90 % of a round trip is socket and thread hand-off, so front-end and proto changes show here and engine changes do not",
    },
    Spec {
        name: "xpart_tcp",
        transport: Transport::Tcp,
        partitions: 4,
        nodes_per_partition: 2,
        mix: XPART,
        size: Size::RateTimesSeconds,
        rate_tps: 3000.0,
        locks: false,
        durable: false,
        ladder_tps: &[3000.0, 6_000.0, 12_000.0, 18_000.0, 24_000.0, 32_000.0],
        why: "hospital_tcp's rate and topology with counters only, so no journal values and no store growth: the gap to hospital_tcp is what they cost over TCP; its traced run climbs the rate ladder",
    },
    Spec {
        name: "ingest_durable_tcp",
        transport: Transport::Tcp,
        partitions: 4,
        nodes_per_partition: 2,
        mix: XPART,
        size: Size::RateTimesSeconds,
        rate_tps: 600.0,
        locks: false,
        durable: true,
        ladder_tps: &[],
        why: "file WAL + paged backend at 600 tps: the only TCP workload where the engine (WAL append at p50; checkpoint fsync and page flush at p99) is most of the round trip",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One scheduled transaction: microseconds after the run's epoch, and what
/// to submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub at_us: u64,
    pub plan: TxnPlan,
}

/// Plans and schema against logical node ids `0..nodes`.
#[derive(Clone, Debug)]
pub struct Logical {
    pub schema: Schema,
    pub jobs: Vec<Job>,
}

/// Plans and schema on the global ids of one topology.
#[derive(Clone, Debug)]
pub struct Homed {
    pub topology: Topology,
    pub schema: Schema,
    pub jobs: Vec<Job>,
}

impl Homed {
    /// Every database node of the topology, in partition order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.topology.n_partitions())
            .flat_map(|p| self.topology.nodes(PartitionId(p)))
            .collect()
    }
}

impl Spec {
    pub fn topology(&self) -> Topology {
        Topology::new(self.partitions, self.nodes_per_partition)
    }

    pub fn nodes(&self) -> u16 {
        self.partitions * self.nodes_per_partition
    }

    /// The same nodes in one partition: the no-shuttle twin.
    pub fn single_partition_topology(&self) -> Topology {
        Topology::new(1, self.nodes())
    }

    /// Generate the logical plan list. `scale_down` divides every
    /// transaction count (`--quick` passes 10; claims use 1).
    pub fn generate(&self, seed: u64, seconds: f64, scale_down: usize) -> Logical {
        let (duration, take) = match self.size {
            Size::RateTimesSeconds => {
                let secs = seconds / scale_down as f64;
                (SimDuration((secs * 1e6) as u64), usize::MAX)
            }
            // Generate 20 % past the expected count (the Poisson count
            // wanders by ~sqrt(n)), then cut to exactly `n`.
            Size::Fixed(n) => {
                let n = n / scale_down;
                let secs = n as f64 * 1.2 / self.rate_tps + 0.05;
                (SimDuration((secs * 1e6) as u64), n)
            }
        };
        let (schema, arrivals) = self.arrivals(seed, duration);
        assert!(
            take == usize::MAX || arrivals.len() >= take,
            "{}: generator produced {} of {take} plans",
            self.name,
            arrivals.len()
        );
        let jobs = arrivals
            .into_iter()
            .take(take)
            .map(|a| Job {
                at_us: a.at.0,
                plan: a.plan,
            })
            .collect();
        Logical { schema, jobs }
    }

    fn arrivals(&self, seed: u64, duration: SimDuration) -> (Schema, Vec<Arrival>) {
        match self.mix {
            Mix::Hospital => {
                let w = HospitalWorkload {
                    departments: self.nodes(),
                    patients: 64,
                    rate_tps: self.rate_tps,
                    read_pct: 20,
                    max_fanout: 3,
                    duration,
                    zipf_s: 0.9,
                    seed,
                };
                (w.schema(), w.arrivals())
            }
            Mix::Synthetic {
                fanout_min,
                fanout_max,
            } => SyntheticWorkload::new(SyntheticParams {
                n_nodes: self.nodes(),
                keys_per_node: 1024,
                read_pct: 20,
                nc_pct: 0,
                fanout_min,
                fanout_max,
                ops_per_subtxn: 2,
                rate_tps: self.rate_tps,
                duration,
                zipf_s: 0.8,
                with_journals: false,
                seed,
            })
            .generate(),
            Mix::Retail => {
                let w = RetailWorkload {
                    stores: self.nodes(),
                    products: 300,
                    rate_tps: self.rate_tps,
                    read_pct: 15,
                    nc_pct: 25,
                    duration,
                    zipf_s: 1.1,
                    seed,
                };
                (w.schema(), w.arrivals())
            }
        }
    }

    /// Where nodes keep their state: memory and no log, or (durable
    /// workloads) a file WAL and page files under `scratch`.
    pub fn node_storage(&self, scratch: &Path) -> (DurabilityMode, BackendConfig) {
        if self.durable {
            (
                DurabilityMode::File {
                    dir: scratch.join("wal"),
                    checkpoint_every: CHECKPOINT_EVERY,
                },
                BackendConfig::Paged {
                    dir: scratch.join("pages"),
                },
            )
        } else {
            (DurabilityMode::None, BackendConfig::Mem)
        }
    }

    /// The cluster configuration of this workload on `topology`.
    pub fn sharded_config(&self, topology: Topology, scratch: &Path) -> ShardedConfig {
        let (durability, backend) = self.node_storage(scratch);
        let cfg = ShardedConfig::new(topology.n_partitions(), topology.nodes_per_partition())
            .durability(durability)
            .backend(backend);
        if self.locks {
            cfg.with_locks()
        } else {
            cfg
        }
    }
}

/// Global id of logical node `n` on `topology`: contiguous equal blocks,
/// the layout `ShardedHospital::global_node` implements.
pub fn global_node(topology: Topology, n: NodeId) -> NodeId {
    let per = topology.nodes_per_partition();
    let p = PartitionId(n.0 / per);
    NodeId(topology.base(p).0 + n.0 % per)
}

/// Move a logical plan list and its schema onto `topology`. Keys are
/// untouched: each already encodes its logical node, and the schema is
/// remapped with the same function, so every key stays on its home node.
pub fn rehome(logical: &Logical, topology: Topology) -> Homed {
    let schema = Schema::new(
        logical
            .schema
            .decls()
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.node = global_node(topology, d.node);
                d
            })
            .collect(),
    );
    let jobs = logical
        .jobs
        .iter()
        .map(|j| Job {
            at_us: j.at_us,
            plan: j.plan.map_nodes(&mut |n| global_node(topology, n)),
        })
        .collect();
    Homed {
        topology,
        schema,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_server::Request;
    use threev_shard::ShardedHospital;

    #[test]
    fn same_seed_gives_a_byte_identical_plan_list() {
        for spec in &WORKLOADS {
            let frames = |seed| -> Vec<u8> {
                let homed = rehome(&spec.generate(seed, 1.0, 10), spec.topology());
                homed
                    .jobs
                    .iter()
                    .flat_map(|j| {
                        let mut bytes = j.at_us.to_le_bytes().to_vec();
                        let submit = Request::Submit {
                            plan: j.plan.clone(),
                        };
                        bytes.extend(submit.encode().unwrap());
                        bytes
                    })
                    .collect()
            };
            let a = frames(42);
            assert!(!a.is_empty(), "{}", spec.name);
            assert_eq!(a, frames(42), "{}", spec.name);
            assert_ne!(a, frames(43), "{}", spec.name);
        }
    }

    #[test]
    fn rehoming_leaves_every_key_on_its_home_node() {
        for spec in &WORKLOADS {
            let logical = spec.generate(7, 1.0, 10);
            for topology in [spec.topology(), spec.single_partition_topology()] {
                let homed = rehome(&logical, topology);
                let db_nodes = homed.node_ids();
                for job in &homed.jobs {
                    job.plan.validate().unwrap();
                    for (node, step) in job.plan.root.all_steps() {
                        assert!(db_nodes.contains(&node), "{}", spec.name);
                        assert_eq!(homed.schema.home(step.key()), Some(node), "{}", spec.name);
                    }
                }
            }
        }
    }

    #[test]
    fn rehoming_matches_sharded_hospital() {
        let spec = find("hospital_tcp").unwrap();
        let logical = spec.generate(11, 1.0, 4);
        let homed = rehome(&logical, spec.topology());
        let base = HospitalWorkload {
            departments: 8,
            patients: 64,
            rate_tps: 3000.0,
            read_pct: 20,
            max_fanout: 3,
            duration: SimDuration(250_000),
            zipf_s: 0.9,
            seed: 11,
        };
        let sharded = ShardedHospital::new(base, spec.topology());
        assert_eq!(homed.schema.decls(), sharded.schema().decls());
        let mut theirs: Vec<Job> = sharded
            .arrivals()
            .into_iter()
            .flatten()
            .map(|a| Job {
                at_us: a.at.0,
                plan: a.plan,
            })
            .collect();
        theirs.sort_by_key(|j| j.at_us);
        assert_eq!(homed.jobs, theirs);
    }

    #[test]
    fn fixed_sizes_are_exact_and_scale_down() {
        let spec = find("xpart_embedded").unwrap();
        assert_eq!(spec.generate(1, 10.0, 10).jobs.len(), 10_000);
        let local = find("local_embedded").unwrap().generate(1, 10.0, 100);
        assert_eq!(local.jobs.len(), 2_000);
        assert!(local.jobs.iter().all(|j| j.plan.root.nodes().len() == 1));
    }
}
