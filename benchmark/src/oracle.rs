//! Order-independent correctness oracle.
//!
//! After a run, every counter must read the sum of the `Add`s of the
//! transactions whose commit was acknowledged, and every journal must hold
//! as many entries as acknowledged `Append`s. Commutativity makes the sum
//! independent of the order two connections interleaved in, which is what
//! lets one oracle serve the TCP runs too. Registers (`Assign`) depend on
//! order and are covered by the embedded fingerprint check instead.

use std::collections::BTreeMap;

use threev_model::{Key, OpStep, Schema, TxnPlan, UpdateOp, Value};
use threev_server::proto::ReadResult;

/// Keys per read-back request (`Engine::read` deduplicates quadratically).
const READ_CHUNK: usize = 64;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Expected {
    Counter(i64),
    JournalLen(usize),
}

pub struct Oracle {
    expected: BTreeMap<Key, Expected>,
}

impl Oracle {
    /// Every counter at its initial value, every journal empty.
    pub fn new(schema: &Schema) -> Self {
        let expected = schema
            .decls()
            .iter()
            .filter_map(|d| match &d.init {
                Value::Counter(c) => Some((d.key, Expected::Counter(*c))),
                Value::Journal(j) => Some((d.key, Expected::JournalLen(j.len()))),
                Value::Register(_) => None,
            })
            .collect();
        Oracle { expected }
    }

    /// Account for one transaction whose commit the system acknowledged.
    pub fn acknowledge(&mut self, plan: &TxnPlan) {
        for (_, step) in plan.root.all_steps() {
            let OpStep::Update(key, op) = step else {
                continue;
            };
            match (self.expected.get_mut(key), op) {
                (Some(Expected::Counter(c)), UpdateOp::Add(d)) => *c += d,
                (Some(Expected::JournalLen(n)), UpdateOp::Append { .. }) => *n += 1,
                _ => {}
            }
        }
    }

    /// Read every checked key back through `read` and count the keys whose
    /// visible value differs from the acknowledged history (a key the
    /// reader does not return counts too).
    pub fn mismatches<E>(
        &self,
        mut read: impl FnMut(&[Key]) -> Result<Vec<ReadResult>, E>,
    ) -> Result<u64, E> {
        let keys: Vec<Key> = self.expected.keys().copied().collect();
        let mut bad = 0;
        for chunk in keys.chunks(READ_CHUNK) {
            let reads = read(chunk)?;
            for key in chunk {
                let seen = reads
                    .iter()
                    .find(|r| r.key == *key)
                    .map(|r| match &r.value {
                        Value::Counter(c) => Expected::Counter(*c),
                        Value::Journal(j) => Expected::JournalLen(j.len()),
                        Value::Register(_) => Expected::JournalLen(usize::MAX),
                    });
                if seen.as_ref() != self.expected.get(key) {
                    bad += 1;
                }
            }
        }
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::{find, rehome, ADVANCE_EVERY};
    use threev_server::Engine;

    #[test]
    fn a_dropped_acknowledgement_is_caught() {
        let spec = find("hospital_embedded").unwrap();
        let homed = rehome(&spec.generate(3, 1.0, 10), spec.topology());
        let cfg = spec.sharded_config(homed.topology, std::path::Path::new("unused"));
        let mut engine = Engine::new(&homed.schema, cfg, ADVANCE_EVERY);
        let mut full = Oracle::new(&homed.schema);
        let mut dropped = Oracle::new(&homed.schema);
        let victim = homed
            .jobs
            .iter()
            .position(|j| j.plan.has_updates())
            .unwrap();
        for (i, job) in homed.jobs.iter().enumerate() {
            assert!(engine.submit(&job.plan).unwrap().committed);
            full.acknowledge(&job.plan);
            if i != victim {
                dropped.acknowledge(&job.plan);
            }
        }
        engine.trigger_advancement();
        engine.trigger_advancement();
        assert_eq!(full.mismatches(|k| engine.read(k)).unwrap(), 0);
        // The victim's root charges one counter and one journal at least.
        assert!(dropped.mismatches(|k| engine.read(k)).unwrap() >= 2);
    }
}
