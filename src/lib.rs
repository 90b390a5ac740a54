//! # threev — Scalable Versioning in Distributed Databases with Commuting Updates
//!
//! A from-scratch Rust reproduction of the **3V algorithm** of Jagadish,
//! Mumick & Rabinovich (ICDE 1997): a three-version multiversioning scheme
//! for distributed data-recording systems whose version advancement is
//! completely asynchronous with user transactions.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] — ids, values, commuting update operations, transaction trees;
//! * [`sim`] — the deterministic discrete-event simulation kernel;
//! * [`storage`] — the per-node multiversion storage engine;
//! * [`durability`] — per-node WAL, checkpoints, and crash recovery;
//! * [`core`] — the 3V protocol itself (and NC3V for non-commuting updates);
//! * [`baselines`] — global 2PL/2PC, no-coordination, and manual versioning;
//! * [`runtime`] — a real-thread driver for wall-clock execution;
//! * [`workload`] — hospital / telecom / retail data-recording workloads;
//! * [`analysis`] — metrics, staleness tracking, and the serializability
//!   auditor;
//! * [`check`] — the deterministic model checker (schedule exploration,
//!   invariant oracle, counterexample shrinking).
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the system inventory.

pub use threev_analysis as analysis;
pub use threev_baselines as baselines;
pub use threev_check as check;
pub use threev_core as core;
pub use threev_durability as durability;
pub use threev_model as model;
pub use threev_runtime as runtime;
pub use threev_shard as shard;
pub use threev_sim as sim;
pub use threev_storage as storage;
pub use threev_workload as workload;

pub mod testutil {
    //! Shared helpers for the workspace's integration tests and binaries:
    //! the `THREEV_FAULT_SEED` / `THREEV_BACKEND` environment hooks the CI
    //! matrices (and the `threev-server` binary) use for reproducible runs,
    //! parsed in exactly one place.

    use threev_storage::BackendConfig;

    /// Read environment variable `name` and parse it with `parse`, falling
    /// back to `default` when unset. A value that is set but does not parse
    /// is a harness misconfiguration, so it panics (with `parse`'s message)
    /// rather than silently running the default and reporting green for a
    /// configuration that never executed.
    pub fn env_or<T>(name: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
        match std::env::var(name) {
            Ok(raw) => match parse(raw.trim()) {
                Ok(v) => v,
                Err(msg) => panic!("{name}={raw:?} is invalid: {msg}"),
            },
            Err(std::env::VarError::NotPresent) => default,
            Err(e) => panic!("{name} is not readable: {e}"),
        }
    }

    /// Read the fault-injection seed from `THREEV_FAULT_SEED`, falling back
    /// to `default` when the variable is unset.
    ///
    /// The CI fault matrices sweep seeds through this variable without
    /// recompiling (see `.github/workflows/ci.yml`).
    pub fn fault_seed_or(default: u64) -> u64 {
        env_or("THREEV_FAULT_SEED", default, |raw| {
            raw.parse().map_err(|e| {
                format!("not a valid u64 seed ({e}); unset it or pass a decimal integer")
            })
        })
    }

    /// Read the storage backend from `THREEV_BACKEND` (`mem`, `paged`, or
    /// unset → mem). `paged` gets a fresh per-call scratch directory via
    /// [`BackendConfig::paged_scratch`], namespaced by `tag`, so repeated
    /// runs within one process never see each other's page files.
    pub fn backend_from_env(tag: &str) -> BackendConfig {
        env_or("THREEV_BACKEND", BackendConfig::Mem, |raw| match raw {
            "mem" => Ok(BackendConfig::Mem),
            "paged" => Ok(BackendConfig::paged_scratch(tag)),
            _ => Err("must be `mem` or `paged`".to_string()),
        })
    }
}
