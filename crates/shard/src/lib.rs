#![forbid(unsafe_code)]
//! Multi-partition scale-out for the 3V protocol.
//!
//! The single-coordinator core (`threev-core`) advances versions for one
//! partition of nodes. This crate composes many such partitions into a
//! **sharded cluster**: a [`KeyRangeRouter`] maps the record-id keyspace
//! onto partitions, each partition runs its own independent advancement
//! loop (its own [`threev_core::advance::Coordinator`]), and transactions
//! whose subtransaction trees span partitions execute as ordinary 3V
//! trees whose children land on foreign nodes.
//!
//! Cross-partition correctness rests on two core-layer mechanisms (see
//! `DESIGN.md`, "Sharding & cross-partition trees"):
//!
//! * **Gauge counters** — R/C counters keyed per *partition pair* through
//!   reserved sentinel node ids ([`threev_model::GAUGE_BASE`]), so a
//!   partition's advancement only waits on peers it has live traffic
//!   with: with no cross traffic the gauge rows are absent and the
//!   counter matrix is exactly the single-partition one.
//! * **Resolution pins** — a shipper of a cross-partition child holds its
//!   gauge row open until the whole tree resolves, preventing a foreign
//!   partition from advancing past a version that still has in-flight
//!   compensation headed its way.
//!
//! With one partition ([`Topology::is_single`]), every code path in this
//! crate reduces bit-for-bit to the single-cluster
//! [`threev_core::cluster::ThreeVCluster`] — pinned by tests.
//!
//! [`Topology::is_single`]: threev_model::Topology::is_single

pub mod cluster;
pub mod router;
pub mod workload;

pub use cluster::{ShardOutcome, ShardedCluster, ShardedConfig, SubmitError};
pub use router::{KeyRangeRouter, RouterError};
pub use workload::ShardedHospital;
