//! Intra-node key-striped execution state (ROADMAP item 3).
//!
//! The paper's commutativity assumption (§2) says commuting updates on
//! *disjoint* keys need no mutual ordering: the update-all-≥`V(T)` rule and
//! the read-max-≤`v` rule are both single-key local, the R/C counters are
//! key-agnostic, and the NC3V lock table decides every `acquire` from the
//! state of one key alone. So a node's store and lock table may be split
//! into N independent *stripes* by a fixed hash of the key, with each
//! stripe holding its own version chains and lock states, and every
//! single-key operation routed to exactly one stripe — no cross-stripe
//! ordering exists to violate.
//!
//! What this buys: per-stripe maps are smaller (shallower `BTreeMap`s on
//! the hot read/update path), a stripe-spanning plan is detectable (the
//! fallback is simply that each step routes independently — correctness is
//! unconditional), and the layout is ready for per-stripe worker threads
//! when multi-core delivery lands.
//!
//! Why equivalence holds *exactly* (the `stripe_equivalence` suite pins
//! this down):
//!
//! * **Store**: every §4 rule reads/writes one key's chain. Routing by key
//!   partitions the chains without changing any chain's content. Merged
//!   views ([`StripedStore::export_parts`], [`StripedStore::iter_versions`])
//!   re-sort by key, reproducing the single `BTreeMap`'s iteration order.
//! * **Locks**: [`crate::LockTable::acquire`] decisions depend only on the
//!   addressed key's holders/waiters; [`StripedLocks::release_all`] merges
//!   per-stripe grants and stable-sorts them by key, reproducing the single
//!   table's key-ordered promotion sweep (within one key all grants come
//!   from one stripe in FIFO order, and a stable sort preserves that).
//! * **Stats**: reads/updates/copies/dual-writes/GC-drop/GC-visit counters are sums
//!   of disjoint routed events; the version high-water mark is a max; a GC
//!   sweep runs once over every stripe, so `gc_runs` merges as a max, not
//!   a sum.

use std::io;

use threev_model::{Key, NodeId, Schema, TxnId, UpdateOp, Value, VersionNo};

use crate::backend::{AnyBackend, BackendConfig};
use crate::locks::{Grants, LockDecision, LockMode, LockTable};
use crate::record::{UpdateOutcome, VersionedRecord};
use crate::store::{Store, StoreError, StoreStats};
use crate::undo::UndoLog;

/// Which stripe owns `key` in an `n`-striped node. Fibonacci-multiplicative
/// hash: cheap, deterministic, and spreads the dense low-valued keys the
/// workload generators emit. `n <= 1` always routes to stripe 0.
#[inline]
pub fn stripe_of(key: Key, n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        ((key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n
    }
}

/// A node's store split into N independent key-striped [`Store`]s.
///
/// With one stripe this is a transparent wrapper around the classic
/// `Store<AnyBackend>` — same construction path, same backend directory
/// layout — so the default configuration stays bit-identical to the
/// unsharded engine.
#[derive(Debug)]
pub struct StripedStore {
    node: NodeId,
    stripes: Vec<Store<AnyBackend>>,
}

impl StripedStore {
    /// Build the striped store for `node` from the schema: each stripe
    /// opens its own backend via [`BackendConfig::open_stripe`] and
    /// materialises only the schema keys that hash to it. A reopened
    /// non-empty backend keeps its recovered chains and ignores the schema
    /// (mirroring [`Store::from_schema_on`]).
    ///
    /// # Errors
    /// Propagates backend open errors (the `Mem` arm never fails).
    pub fn from_schema_on_config(
        cfg: &BackendConfig,
        schema: &Schema,
        node: NodeId,
        n_stripes: u16,
    ) -> io::Result<Self> {
        let n = usize::from(n_stripes.max(1));
        if n == 1 {
            // Exact legacy path: same directory name, same construction.
            let backend = cfg.open(node)?;
            return Ok(StripedStore {
                node,
                stripes: vec![Store::from_schema_on(backend, schema, node)],
            });
        }
        let mut stripes = Vec::with_capacity(n);
        for idx in 0..n {
            let backend = cfg.open_stripe(node, idx as u16, n_stripes)?;
            let mut stripe = Store::on_backend(backend, node);
            if stripe.is_empty() {
                for decl in schema.keys_on(node) {
                    if stripe_of(decl.key, n) == idx {
                        stripe.insert_initial(decl.key, decl.init.clone());
                    }
                }
            }
            stripes.push(stripe);
        }
        Ok(StripedStore { node, stripes })
    }

    /// Wrap an already-built single store (recovery installs, tests).
    pub fn from_single(store: Store<AnyBackend>) -> Self {
        StripedStore {
            node: store.node(),
            stripes: vec![store],
        }
    }

    /// Rebuild an `n`-striped in-memory store from merged exported parts
    /// (checkpoint recovery: the snapshot image is always the merged,
    /// key-sorted view, whatever the stripe count that produced it).
    pub fn from_merged_parts(
        node: NodeId,
        parts: Vec<(Key, Vec<(VersionNo, Value)>)>,
        n_stripes: u16,
    ) -> Self {
        let n = usize::from(n_stripes.max(1));
        let mut routed: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for (key, versions) in parts {
            routed[stripe_of(key, n)].push((key, versions));
        }
        StripedStore {
            node,
            stripes: routed
                .into_iter()
                .map(|p| Store::from_parts(node, p).into_any())
                .collect(),
        }
    }

    /// Empty volatile single-stripe placeholder (the post-crash wipe;
    /// recovery replaces it).
    pub fn empty_mem(node: NodeId) -> Self {
        StripedStore::from_single(Store::empty(node).into_any())
    }

    /// Number of stripes.
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Which stripe owns `key`.
    #[inline]
    pub fn stripe_of_key(&self, key: Key) -> usize {
        stripe_of(key, self.stripes.len())
    }

    #[inline]
    fn stripe(&self, key: Key) -> &Store<AnyBackend> {
        &self.stripes[self.stripe_of_key(key)]
    }

    #[inline]
    fn stripe_mut(&mut self, key: Key) -> &mut Store<AnyBackend> {
        let idx = self.stripe_of_key(key);
        &mut self.stripes[idx]
    }

    /// The single underlying store — only meaningful (and only called) on
    /// unsharded nodes, e.g. paged-backend recovery which replays the WAL
    /// directly into the one store.
    pub fn single_mut(&mut self) -> &mut Store<AnyBackend> {
        debug_assert_eq!(self.stripes.len(), 1);
        &mut self.stripes[0]
    }

    /// Node this store belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total number of keys across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(Store::len).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(Store::is_empty)
    }

    /// Merged statistics: event counters sum across stripes; the version
    /// high-water mark is a max; `gc_runs` is a max because one §4.3 sweep
    /// visits every stripe once.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        for s in &self.stripes {
            let st = s.stats();
            out.reads += st.reads;
            out.updates += st.updates;
            out.copies_created += st.copies_created;
            out.dual_writes += st.dual_writes;
            out.max_versions_of_any_item = out
                .max_versions_of_any_item
                .max(st.max_versions_of_any_item);
            out.gc_runs = out.gc_runs.max(st.gc_runs);
            out.gc_dropped += st.gc_dropped;
            out.gc_visited += st.gc_visited;
        }
        out
    }

    /// Insert a key at version 0 (test/bootstrap helper).
    pub fn insert_initial(&mut self, key: Key, value: Value) {
        self.stripe_mut(key).insert_initial(key, value);
    }

    /// Validate the read rule without serving the read.
    pub fn check_read(&self, key: Key, v: VersionNo) -> Result<(), StoreError> {
        self.stripe(key).check_read(key, v)
    }

    /// Validate an update without applying it.
    pub fn check_update(&self, key: Key, v: VersionNo, op: UpdateOp) -> Result<(), StoreError> {
        self.stripe(key).check_update(key, v, op)
    }

    /// Read rule (§4.1 step 3 / §4.2): maximum existing version ≤ `v`.
    pub fn read_visible(
        &mut self,
        key: Key,
        v: VersionNo,
    ) -> Result<(VersionNo, Value), StoreError> {
        self.stripe_mut(key).read_visible(key, v)
    }

    /// Update rule (§4.1 step 4) on the owning stripe.
    pub fn update(
        &mut self,
        key: Key,
        v: VersionNo,
        op: UpdateOp,
        txn: TxnId,
        undo: Option<&mut UndoLog>,
    ) -> Result<UpdateOutcome, StoreError> {
        self.stripe_mut(key).update(key, v, op, txn, undo)
    }

    /// Does any version of `key` exist strictly above `v`? (NC3V §5.)
    pub fn exists_above(&self, key: Key, v: VersionNo) -> Result<bool, StoreError> {
        self.stripe(key).exists_above(key, v)
    }

    /// Apply an undo log newest-first, routing each entry to its stripe.
    /// Equivalent to [`Store::rollback`]: restores are single-version
    /// writes, so per-entry routing preserves the newest-first order that
    /// matters (entries for one key always land on one stripe).
    pub fn rollback(&mut self, log: UndoLog) {
        for (key, version, prior) in log.into_entries_rev() {
            self.stripe_mut(key).restore_version(key, version, prior);
        }
    }

    /// Restore version `v` of `key` to `prior` (WAL replay helper).
    pub fn restore_version(&mut self, key: Key, v: VersionNo, prior: Option<Value>) {
        self.stripe_mut(key).restore_version(key, v, prior);
    }

    /// Garbage-collect every stripe for the new read version (§4.3
    /// Phase 4). One logical sweep; each stripe's `gc_runs` ticks once.
    pub fn gc(&mut self, vr_new: VersionNo) {
        for s in &mut self.stripes {
            s.gc(vr_new);
        }
    }

    /// Export the full version layout of every key, sorted by key — the
    /// same image a single store exports, whatever the stripe count.
    pub fn export_parts(&self) -> Vec<(Key, Vec<(VersionNo, Value)>)> {
        let mut parts: Vec<_> = self.stripes.iter().flat_map(|s| s.export_parts()).collect();
        parts.sort_unstable_by_key(|(k, _)| *k);
        parts
    }

    /// Version layout of one key.
    pub fn layout(&self, key: Key) -> Option<Vec<(VersionNo, Value)>> {
        self.stripe(key).layout(key)
    }

    /// Current maximum live version count across all items.
    pub fn current_max_versions(&self) -> usize {
        self.stripes
            .iter()
            .map(Store::current_max_versions)
            .max()
            .unwrap_or(0)
    }

    /// All keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.iter_versions().map(|(k, _)| k)
    }

    /// Non-cloning snapshot view of every chain, merged back into key
    /// order (the single-store iteration order downstream checks rely on).
    pub fn iter_versions(&self) -> impl Iterator<Item = (Key, &VersionedRecord)> + '_ {
        let mut rows: Vec<(Key, &VersionedRecord)> = self
            .stripes
            .iter()
            .flat_map(|s| s.iter_versions())
            .collect();
        rows.sort_unstable_by_key(|(k, _)| *k);
        rows.into_iter()
    }

    /// Persist dirty records in every stripe; returns total bytes written.
    pub fn flush_dirty(&mut self, lsn: u64) -> u64 {
        self.stripes.iter_mut().map(|s| s.flush_dirty(lsn)).sum()
    }

    /// LSN the durable image is current to: the *minimum* over stripes
    /// (the image as a whole is only as new as its stalest stripe).
    pub fn durable_lsn(&self) -> Option<u64> {
        self.stripes.iter().filter_map(Store::durable_lsn).min()
    }

    /// Do the backends hold chains on stable storage?
    pub fn persists_chains(&self) -> bool {
        self.stripes.iter().any(Store::persists_chains)
    }
}

/// The NC3V lock table split into N key-striped [`LockTable`]s.
///
/// Every `acquire` decision in [`LockTable`] is a pure function of the
/// addressed key's holders and waiters (wait-die compares the requester
/// against *that key's* conflict set only), so routing by key is exact.
#[derive(Debug)]
pub struct StripedLocks {
    stripes: Vec<LockTable>,
}

impl StripedLocks {
    /// New empty table with `n` stripes (`n <= 1` → one classic table).
    pub fn new(n_stripes: u16) -> Self {
        let n = usize::from(n_stripes.max(1));
        StripedLocks {
            stripes: (0..n).map(|_| LockTable::new()).collect(),
        }
    }

    /// Wrap an existing single table (recovery installs).
    pub fn from_single(table: LockTable) -> Self {
        StripedLocks {
            stripes: vec![table],
        }
    }

    /// Rebuild an `n`-striped table from merged exported parts (checkpoint
    /// recovery). Statistics restart at zero, as in
    /// [`LockTable::from_parts`].
    #[allow(clippy::type_complexity)]
    pub fn from_merged_parts(
        parts: Vec<(Key, Vec<(TxnId, LockMode, u32)>, Vec<(TxnId, LockMode)>)>,
        n_stripes: u16,
    ) -> Self {
        let n = usize::from(n_stripes.max(1));
        let mut routed: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for row in parts {
            routed[stripe_of(row.0, n)].push(row);
        }
        StripedLocks {
            stripes: routed.into_iter().map(LockTable::from_parts).collect(),
        }
    }

    /// Number of stripes.
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    #[inline]
    fn stripe_mut(&mut self, key: Key) -> &mut LockTable {
        let idx = stripe_of(key, self.stripes.len());
        &mut self.stripes[idx]
    }

    #[inline]
    fn stripe(&self, key: Key) -> &LockTable {
        &self.stripes[stripe_of(key, self.stripes.len())]
    }

    /// Request `mode` on `key` for `txn` (routed; see [`LockTable::acquire`]).
    pub fn acquire(&mut self, key: Key, mode: LockMode, txn: TxnId) -> LockDecision {
        self.stripe_mut(key).acquire(key, mode, txn)
    }

    /// Release every lock held or awaited by `txn` across all stripes,
    /// returning the grants that become possible **in key order** — the
    /// exact order the single table's key-ordered promotion sweep emits.
    /// The sort is stable so one key's FIFO grant order (all from one
    /// stripe) is preserved.
    pub fn release_all(&mut self, txn: TxnId) -> Grants {
        let mut grants = Grants::new();
        for s in &mut self.stripes {
            grants.append(&mut s.release_all(txn));
        }
        if self.stripes.len() > 1 {
            grants.sort_by_key(|&(_, key, _)| key);
        }
        grants
    }

    /// Does `txn` currently hold a lock on `key`?
    pub fn holds(&self, txn: TxnId, key: Key) -> bool {
        self.stripe(key).holds(txn, key)
    }

    /// Number of holders on `key`.
    pub fn holder_count(&self, key: Key) -> usize {
        self.stripe(key).holder_count(key)
    }

    /// Number of waiters on `key`.
    pub fn waiter_count(&self, key: Key) -> usize {
        self.stripe(key).waiter_count(key)
    }

    /// Is every stripe completely free? (Quiescence invariant.)
    pub fn is_idle(&self) -> bool {
        self.stripes.iter().all(LockTable::is_idle)
    }

    /// Total waits observed across stripes (experiment X6).
    pub fn waits(&self) -> u64 {
        self.stripes.iter().map(|s| s.waits).sum()
    }

    /// Total wait-die aborts across stripes.
    pub fn die_aborts(&self) -> u64 {
        self.stripes.iter().map(|s| s.die_aborts).sum()
    }

    /// Export the merged table for a durability checkpoint, sorted by key —
    /// the same image a single table exports.
    #[allow(clippy::type_complexity)]
    pub fn export_parts(&self) -> Vec<(Key, Vec<(TxnId, LockMode, u32)>, Vec<(TxnId, LockMode)>)> {
        let mut parts: Vec<_> = self.stripes.iter().flat_map(|s| s.export_parts()).collect();
        parts.sort_unstable_by_key(|(k, ..)| *k);
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::KeyDecl;

    fn t(seq: u64) -> TxnId {
        TxnId::new(seq, NodeId(0))
    }
    fn v(n: u32) -> VersionNo {
        VersionNo(n)
    }

    fn schema(n_keys: u64) -> Schema {
        Schema::new(
            (0..n_keys)
                .map(|k| KeyDecl::counter(Key(k), NodeId(0), 100))
                .collect(),
        )
    }

    fn striped(n: u16) -> StripedStore {
        StripedStore::from_schema_on_config(&BackendConfig::Mem, &schema(16), NodeId(0), n).unwrap()
    }

    #[test]
    fn stripe_of_is_total_and_stable() {
        for k in 0..1000u64 {
            assert_eq!(stripe_of(Key(k), 0), 0);
            assert_eq!(stripe_of(Key(k), 1), 0);
            for n in [2usize, 3, 8] {
                let s = stripe_of(Key(k), n);
                assert!(s < n);
                assert_eq!(s, stripe_of(Key(k), n), "deterministic");
            }
        }
    }

    #[test]
    fn stripes_spread_keys_and_preserve_totals() {
        let s = striped(8);
        assert_eq!(s.n_stripes(), 8);
        assert_eq!(s.len(), 16);
        assert!(!s.is_empty());
        // At least two stripes are non-empty for 16 dense keys.
        let occupied = (0..16u64)
            .map(|k| s.stripe_of_key(Key(k)))
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            occupied.len() >= 2,
            "hash must actually spread: {occupied:?}"
        );
    }

    /// The load-bearing property: a scripted op sequence produces the same
    /// merged layouts, stats, and errors at every stripe count.
    #[test]
    fn striped_store_equals_single_store() {
        let mut engines: Vec<StripedStore> = [1u16, 2, 8].iter().map(|&n| striped(n)).collect();
        // A deterministic mixed script: updates at skewed versions, reads,
        // rollbacks, straggler dual writes, GC.
        for s in &mut engines {
            s.update(Key(1), v(1), UpdateOp::Add(10), t(1), None)
                .unwrap();
            s.update(Key(2), v(1), UpdateOp::Add(5), t(1), None)
                .unwrap();
            s.update(Key(1), v(2), UpdateOp::Add(100), t(2), None)
                .unwrap();
            s.update(Key(9), v(2), UpdateOp::Add(7), t(2), None)
                .unwrap();
            // Straggler at v1 -> dual write on Key(1).
            s.update(Key(1), v(1), UpdateOp::Add(1), t(3), None)
                .unwrap();
            assert_eq!(s.read_visible(Key(1), v(1)).unwrap().1, Value::Counter(111));
            assert_eq!(s.read_visible(Key(2), v(0)).unwrap().1, Value::Counter(100));
            // Undo-logged update rolled back.
            let mut log = UndoLog::default();
            s.update(Key(5), v(1), UpdateOp::Add(50), t(4), Some(&mut log))
                .unwrap();
            s.rollback(log);
            assert!(s.exists_above(Key(9), v(1)).unwrap());
            assert!(s.check_read(Key(3), v(0)).is_ok());
            assert!(s.check_update(Key(3), v(1), UpdateOp::Add(1)).is_ok());
            assert!(matches!(
                s.read_visible(Key(99), v(0)),
                Err(StoreError::UnknownKey { .. })
            ));
            s.gc(v(1));
        }
        let baseline = &engines[0];
        for s in &engines[1..] {
            assert_eq!(s.export_parts(), baseline.export_parts());
            assert_eq!(s.stats(), baseline.stats());
            assert_eq!(s.current_max_versions(), baseline.current_max_versions());
            assert_eq!(
                s.keys().collect::<Vec<_>>(),
                baseline.keys().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn merged_views_are_key_sorted() {
        let s = striped(8);
        let keys: Vec<Key> = s.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        let parts = s.export_parts();
        assert!(parts.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn from_merged_parts_round_trips() {
        let mut s = striped(4);
        s.update(Key(1), v(1), UpdateOp::Add(10), t(1), None)
            .unwrap();
        s.update(Key(7), v(1), UpdateOp::Add(3), t(1), None)
            .unwrap();
        let parts = s.export_parts();
        for n in [1u16, 2, 8] {
            let r = StripedStore::from_merged_parts(NodeId(0), parts.clone(), n);
            assert_eq!(r.export_parts(), parts);
            assert_eq!(r.n_stripes(), usize::from(n));
        }
    }

    #[test]
    fn striped_locks_equal_single_table() {
        // Same request script against 1 and 8 stripes: identical decisions
        // and identical merged grant order on release.
        let keys: Vec<Key> = (0..8u64).map(Key).collect();
        let mut one = StripedLocks::new(1);
        let mut eight = StripedLocks::new(8);
        for lt in [&mut one, &mut eight] {
            for &k in &keys {
                assert_eq!(
                    lt.acquire(k, LockMode::Exclusive, t(1)),
                    LockDecision::Granted
                );
            }
            // Older waiters queue; younger die — per key.
            for &k in &keys {
                assert_eq!(
                    lt.acquire(k, LockMode::Commute, t(0)),
                    LockDecision::Waiting
                );
                assert_eq!(lt.acquire(k, LockMode::Commute, t(5)), LockDecision::Abort);
            }
        }
        assert_eq!(one.waits(), eight.waits());
        assert_eq!(one.die_aborts(), eight.die_aborts());
        assert_eq!(one.export_parts(), eight.export_parts());
        let g1 = one.release_all(t(1));
        let g8 = eight.release_all(t(1));
        assert_eq!(g1, g8, "merged grants must reproduce single-table order");
        assert!(g1.windows(2).all(|w| w[0].1 < w[1].1), "grants key-sorted");
        assert!(!one.is_idle() || one.holder_count(Key(0)) == 0);
        let _ = one.release_all(t(0));
        let _ = eight.release_all(t(0));
        assert!(one.is_idle() && eight.is_idle());
    }

    #[test]
    fn striped_locks_from_merged_parts_routes_rows() {
        let mut lt = StripedLocks::new(4);
        lt.acquire(Key(3), LockMode::Commute, t(1));
        lt.acquire(Key(11), LockMode::Exclusive, t(2));
        let parts = lt.export_parts();
        let rebuilt = StripedLocks::from_merged_parts(parts.clone(), 8);
        assert_eq!(rebuilt.export_parts(), parts);
        assert!(rebuilt.holds(t(1), Key(3)));
        assert!(rebuilt.holds(t(2), Key(11)));
    }
}
