//! The network front end of the 3V reproduction.
//!
//! Every other crate in the workspace drives the protocol through function
//! calls; this one puts a wire in between. It hosts the deterministic
//! sharded cluster behind a TCP server speaking a length-prefixed,
//! checksummed frame protocol (built on `threev-storage`'s wire codec),
//! ships a thin blocking client library, and describes the hospital load
//! the server is driven with. Latency over the wire is measured by the
//! repository's benchmark (`benchmark/`), not by this crate.
//!
//! * [`proto`] — request/response frames, version negotiation, framed I/O;
//! * [`engine`] — the command-driven wrapper around `ShardedCluster` that
//!   executes submissions in deterministic virtual time;
//! * [`server`] — acceptor + bounded worker pool + single engine thread;
//! * [`client`] — the blocking client library;
//! * [`load`] — the served hospital workload, its open-loop arrival
//!   schedule, and the latency percentile rule.
//!
//! Threading model and backpressure contract are documented in DESIGN.md
//! ("Network front end"). The socket layer is intentionally *not* in the
//! deterministic lint tier — wall-clock timeouts and thread scheduling
//! live here, while everything protocol-visible stays inside the
//! deterministic engine thread.

#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod load;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use engine::{Engine, EngineError, TxnOutcome};
pub use proto::{Request, Response, PROTOCOL_VERSION};
pub use server::{serve, ServerConfig, ServerHandle};
