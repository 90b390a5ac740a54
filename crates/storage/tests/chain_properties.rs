//! Property-based verification of the versioned record against a naive
//! reference model: a full map `version -> value` with the same rules.
//! Random protocol-shaped operation sequences (reads, updates at drifting
//! versions, GCs at the trailing read version) must agree between the
//! compact ≤3-version chain and the reference at every step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use threev_model::{Key, NodeId, TxnId, UpdateOp, Value, VersionNo};
use threev_storage::{Store, UndoLog, VersionedRecord};

fn tid(seq: u64) -> TxnId {
    TxnId::new(seq, NodeId(0))
}

/// Reference implementation: unbounded version map with the same rules.
#[derive(Clone, Debug)]
struct RefRecord {
    versions: BTreeMap<u32, Value>,
}

impl RefRecord {
    fn new(init: Value) -> Self {
        let mut versions = BTreeMap::new();
        versions.insert(0, init);
        RefRecord { versions }
    }

    fn read_visible(&self, v: u32) -> Option<(u32, &Value)> {
        self.versions
            .range(..=v)
            .next_back()
            .map(|(w, val)| (*w, val))
    }

    fn update(&mut self, v: u32, op: UpdateOp, txn: TxnId) {
        if !self.versions.contains_key(&v) {
            let base = self
                .read_visible(v)
                .map(|(_, val)| val.clone())
                .expect("visible base");
            self.versions.insert(v, base);
        }
        for (_, val) in self.versions.range_mut(v..) {
            op.apply(val, txn).unwrap();
        }
    }

    fn update_exact(&mut self, v: u32, op: UpdateOp, txn: TxnId) {
        if !self.versions.contains_key(&v) {
            let base = self
                .read_visible(v)
                .map(|(_, val)| val.clone())
                .expect("visible base");
            self.versions.insert(v, base);
        }
        op.apply(self.versions.get_mut(&v).unwrap(), txn).unwrap();
    }

    fn restore(&mut self, v: u32, prior: Option<Value>) {
        match prior {
            Some(val) => {
                self.versions.insert(v, val);
            }
            None => {
                self.versions.remove(&v);
            }
        }
    }

    /// Keep the newest version ≤ `vr_new` and everything above it.
    fn gc(&mut self, vr_new: u32) {
        if let Some((&keep, _)) = self.versions.range(..=vr_new).next_back() {
            self.versions.retain(|w, _| *w >= keep);
        }
    }
}

/// One protocol-shaped step: the version window drifts forward like real
/// advancement does (update version = gc floor + 1 or + 2).
#[derive(Clone, Debug)]
enum Step {
    /// Update at `gc_floor + offset` (offset 1 = current, 2 = mid-advance,
    /// 0 = straggler at the read version boundary... clamped below).
    Update {
        offset: u32,
        delta: i64,
    },
    Read {
        offset: u32,
    },
    Advance,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (1u32..=2, -100i64..100).prop_map(|(offset, delta)| Step::Update { offset, delta }),
        3 => (0u32..=2).prop_map(|offset| Step::Read { offset }),
        1 => Just(Step::Advance),
    ]
}

proptest! {
    #[test]
    fn chain_matches_reference_model(steps in proptest::collection::vec(step(), 1..120)) {
        let mut real = VersionedRecord::initial(Value::Counter(0));
        let mut reference = RefRecord::new(Value::Counter(0));
        let mut floor = 0u32; // current read version (gc floor)
        let mut seq = 0u64;

        for s in steps {
            match s {
                Step::Update { offset, delta } => {
                    let v = VersionNo(floor + offset);
                    seq += 1;
                    real.update(Key(1), v, UpdateOp::Add(delta), tid(seq)).unwrap();
                    reference.update(floor + offset, UpdateOp::Add(delta), tid(seq));
                }
                Step::Read { offset } => {
                    let v = floor + offset;
                    let got = real.read_visible(VersionNo(v)).map(|(w, val)| (w.0, val.clone()));
                    let want = reference.read_visible(v).map(|(w, val)| (w, val.clone()));
                    prop_assert_eq!(got, want);
                }
                Step::Advance => {
                    // Like the protocol: everything below the new read
                    // version is collected once it drains.
                    floor += 1;
                    real.gc(VersionNo(floor));
                    reference.gc(floor);
                }
            }
            // Invariants the protocol relies on:
            prop_assert!(real.version_count() <= 3, "chain grew past 3");
            prop_assert_eq!(real.version_count(), reference.versions.len());
            let chain: Vec<u32> = real.version_numbers().map(|v| v.0).collect();
            let reference_keys: Vec<u32> = reference.versions.keys().copied().collect();
            prop_assert_eq!(chain.clone(), reference_keys);
            prop_assert!(chain.windows(2).all(|w| w[0] < w[1]), "sorted strictly");
            // Every live version's value agrees.
            for w in chain {
                prop_assert_eq!(
                    real.value_at(VersionNo(w)),
                    reference.versions.get(&w),
                    "value at v{} diverged", w
                );
            }
        }
    }

    /// GC is idempotent and monotone: collecting twice at the same target,
    /// or at successive targets, never resurrects or corrupts data.
    #[test]
    fn gc_idempotent(updates in proptest::collection::vec((1u32..=2, -50i64..50), 0..20)) {
        let mut r = VersionedRecord::initial(Value::Counter(7));
        for (i, (offset, delta)) in updates.iter().enumerate() {
            r.update(Key(1), VersionNo(*offset), UpdateOp::Add(*delta), tid(i as u64)).unwrap();
        }
        let mut once = r.clone();
        once.gc(VersionNo(1));
        let mut twice = once.clone();
        twice.gc(VersionNo(1));
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.version_numbers().filter(|v| *v < VersionNo(1)).count() <= 1);
        // Monotone follow-up.
        let mut ahead = once.clone();
        ahead.gc(VersionNo(2));
        prop_assert!(ahead.version_count() <= once.version_count());
        prop_assert!(ahead.version_numbers().filter(|v| *v < VersionNo(2)).count() <= 1);
        // Nothing a reader at or above the target can see is lost.
        for v in 2..=3 {
            prop_assert_eq!(ahead.read_visible(VersionNo(v)), once.read_visible(VersionNo(v)));
        }
    }

    /// `Store::gc` visits only the keys it tracked as multi-version; a
    /// full sweep of every key under the same rule must see exactly the
    /// same store after any protocol-shaped mix of updates, exact updates,
    /// rollbacks, restores and sweeps.
    #[test]
    fn store_gc_matches_full_sweep_reference(
        steps in proptest::collection::vec(store_step(), 1..150)
    ) {
        let mut store = Store::empty(NodeId(0));
        let mut reference: Vec<RefRecord> = Vec::new();
        for k in 0..KEYS {
            store.insert_initial(Key(k), Value::Counter(0));
            reference.push(RefRecord::new(Value::Counter(0)));
        }
        let mut floor = 0u32;
        let mut seq = 0u64;

        for s in steps {
            seq += 1;
            match s {
                StoreStep::Update { key, offset, delta } => {
                    let v = floor + offset;
                    store.update(Key(key), VersionNo(v), UpdateOp::Add(delta), tid(seq), None).unwrap();
                    reference[key as usize].update(v, UpdateOp::Add(delta), tid(seq));
                }
                StoreStep::UpdateExact { key, offset, delta } => {
                    let v = floor + offset;
                    store.update_exact(Key(key), VersionNo(v), UpdateOp::Add(delta), tid(seq)).unwrap();
                    reference[key as usize].update_exact(v, UpdateOp::Add(delta), tid(seq));
                }
                StoreStep::Rollback { key, offset, delta } => {
                    // An aborted subtransaction: applied under an undo log,
                    // then rolled back. The reference never saw it.
                    let mut log = UndoLog::default();
                    let v = VersionNo(floor + offset);
                    store.update(Key(key), v, UpdateOp::Add(delta), tid(seq), Some(&mut log)).unwrap();
                    store.rollback(log);
                }
                StoreStep::Restore { key, offset, value } => {
                    // Replayed rollback entries: overwrite a live version,
                    // re-insert one, or remove one (undoing a copy-on-update).
                    // Only protocol-shaped results are applied: exactly one
                    // version ≤ the read version, so later updates always
                    // find a base and never make a fourth version.
                    let v = floor + offset;
                    let prior = value.map(Value::Counter);
                    let mut after = reference[key as usize].clone();
                    after.restore(v, prior.clone());
                    if after.versions.range(..=floor).count() == 1 && after.versions.len() <= 3 {
                        store.restore_version(Key(key), VersionNo(v), prior);
                        reference[key as usize] = after;
                    }
                }
                StoreStep::Advance => {
                    floor += 1;
                    store.gc(VersionNo(floor));
                    for r in &mut reference {
                        r.gc(floor);
                    }
                }
            }
            for k in 0..KEYS {
                let want = &reference[k as usize];
                let got = store.layout(Key(k)).unwrap();
                prop_assert!(got.len() <= 3, "k{} grew past 3 versions", k);
                prop_assert_eq!(got.len(), want.versions.len(), "version count of k{}", k);
                for v in floor..=floor + 3 {
                    let got = store.read_visible(Key(k), VersionNo(v)).ok().map(|(w, val)| (w.0, val));
                    let want = want.read_visible(v).map(|(w, val)| (w, val.clone()));
                    prop_assert_eq!(got, want, "read of k{} at v{}", k, v);
                }
            }
        }
    }
}

const KEYS: u64 = 4;

/// One step of the store-level property: updates land at the drifting
/// update versions (`floor + 1`, `floor + 2`), restores at the window
/// including the read version.
#[derive(Clone, Debug)]
enum StoreStep {
    Update {
        key: u64,
        offset: u32,
        delta: i64,
    },
    UpdateExact {
        key: u64,
        offset: u32,
        delta: i64,
    },
    Rollback {
        key: u64,
        offset: u32,
        delta: i64,
    },
    Restore {
        key: u64,
        offset: u32,
        value: Option<i64>,
    },
    Advance,
}

fn store_step() -> impl Strategy<Value = StoreStep> {
    let op = || (0..KEYS, 1u32..=2, -100i64..100);
    prop_oneof![
        4 => op().prop_map(|(key, offset, delta)| StoreStep::Update { key, offset, delta }),
        2 => op().prop_map(|(key, offset, delta)| StoreStep::UpdateExact { key, offset, delta }),
        2 => op().prop_map(|(key, offset, delta)| StoreStep::Rollback { key, offset, delta }),
        2 => (0..KEYS, 0u32..=2, -100i64..100, any::<bool>()).prop_map(|(key, offset, x, keep)| {
            StoreStep::Restore { key, offset, value: keep.then_some(x) }
        }),
        2 => Just(StoreStep::Advance),
    ]
}
