//! Per-node multiversion storage engine for the 3V protocol.
//!
//! Implements exactly the storage behaviour the paper assumes of each node
//! (§4):
//!
//! * a bounded **version chain** per data item — at most three versions ever
//!   exist ([`record`]);
//! * **copy-on-update**: version `v` of item `x` is created lazily when a
//!   `v`-transaction first writes `x`, by copying the maximum existing
//!   version ≤ `v` (§2.1, §4.1 step 4);
//! * **read-max-≤v**: reads return the maximum existing version not
//!   exceeding the transaction's version (§4.1 step 3, §4.2);
//! * **update-all-≥v**: an update applies to every existing version ≥ the
//!   transaction's version — this single rule realises the "execute against
//!   both copies" treatment of stragglers (§2.3);
//! * **garbage collection** (§4.3 Phase 4): drop the versions below the
//!   newest one ≤ the new read version, visiting only records that may hold
//!   more than one version;
//! * a **lock table** with commute / non-commute modes and wait-die deadlock
//!   avoidance, used only by the NC3V extension (§5) — pure 3V takes no
//!   locks;
//! * an **undo log** for local rollback, feeding the compensation machinery
//!   (§3.2).
//!
//! Where the chains *live* is pluggable ([`backend`]): the in-memory
//! [`MemBackend`] (the default, fully deterministic), or the on-disk
//! [`paged`] engine holding the chains natively in fixed-size pages with
//! incremental (dirty-record) checkpointing. The shared little-endian
//! framing both the page files and the durability WAL use is in [`wire`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod locks;
pub mod paged;
pub mod record;
pub mod store;
pub mod undo;
pub mod wire;

pub use backend::{AnyBackend, BackendConfig, MemBackend, StorageBackend};
pub use locks::{LockDecision, LockMode, LockTable};
pub use paged::{PageAllocator, PagedBackend, PAGE_SIZE};
pub use record::{UpdateOutcome, VersionedRecord};
pub use store::{Store, StoreError, StoreStats};
pub use undo::UndoLog;
