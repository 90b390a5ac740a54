//! Frame codec for [`Msg`]: the message plane's wire format.
//!
//! The storage crate's [`wire`](threev_storage::wire) module owns the byte
//! discipline (little-endian scalars, length-prefixed collections, framed
//! envelopes with an FNV-1a checksum); this module extends it to the
//! *message plane*, so a [`Msg`] can be written as one self-contained,
//! checksummed frame and read back. No in-process driver ships messages as
//! bytes; the codec is kept as the encoding a multi-process transport would
//! use, and the benchmark measures its per-message cost and size.
//!
//! Robustness contract (pinned by `tests/codec_props.rs`): `decode` never
//! panics — truncated, bit-flipped, or synthesised garbage input yields
//! `Err`, and every successful decode of a frame we encoded reproduces the
//! original message exactly.

use threev_analysis::ReadObservation;
use threev_model::{NodeId, SubtxnId, VersionNo};
use threev_storage::wire::{decode_frame, encode_frame, ByteReader, ByteWriter, WireError};

use crate::counters::CounterSnapshot;
use crate::msg::Msg;

/// Protocol version stamped into every message frame. Bump on any layout
/// change; the decoder rejects frames from other versions.
pub const MSG_WIRE_VERSION: u16 = 1;

/// Frame `kind` discriminants, one per [`Msg`] variant. Stable on the
/// wire: append new variants, never renumber.
mod tag {
    pub const SUBMIT: u8 = 0;
    pub const TXN_DONE: u8 = 1;
    pub const READ_RESULTS: u8 = 2;
    pub const SUBTXN: u8 = 3;
    pub const SUBTREE_DONE: u8 = 4;
    pub const COMPENSATE: u8 = 5;
    pub const XP_RESOLVE: u8 = 6;
    pub const START_ADVANCEMENT: u8 = 7;
    pub const ADVANCE_ACK: u8 = 8;
    pub const READ_COUNTERS: u8 = 9;
    pub const COUNTERS_REPORT: u8 = 10;
    pub const ADVANCE_READ: u8 = 11;
    pub const ADVANCE_READ_ACK: u8 = 12;
    pub const GC: u8 = 13;
    pub const GC_ACK: u8 = 14;
    pub const TRIGGER_ADVANCEMENT: u8 = 15;
    pub const NC_PREPARE: u8 = 16;
    pub const NC_VOTE: u8 = 17;
    pub const NC_DECISION: u8 = 18;
    pub const RELEASE_LOCKS: u8 = 19;
}

fn put_bool(w: &mut ByteWriter, b: bool) {
    w.u8(u8::from(b));
}

fn get_bool(r: &mut ByteReader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError("bool byte is neither 0 nor 1")),
    }
}

fn put_opt_node(w: &mut ByteWriter, n: Option<NodeId>) {
    match n {
        None => w.u8(0),
        Some(id) => {
            w.u8(1);
            w.node(id);
        }
    }
}

fn get_opt_node(r: &mut ByteReader<'_>) -> Result<Option<NodeId>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.node()?)),
        _ => Err(WireError("unknown Option<NodeId> tag")),
    }
}

fn put_opt_version(w: &mut ByteWriter, v: Option<VersionNo>) {
    match v {
        None => w.u8(0),
        Some(ver) => {
            w.u8(1);
            w.version(ver);
        }
    }
}

fn get_opt_version(r: &mut ByteReader<'_>) -> Result<Option<VersionNo>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.version()?)),
        _ => Err(WireError("unknown Option<VersionNo> tag")),
    }
}

fn put_subtxn_id(w: &mut ByteWriter, s: SubtxnId) {
    w.node(s.spawner);
    w.u64(s.seq);
}

fn get_subtxn_id(r: &mut ByteReader<'_>) -> Result<SubtxnId, WireError> {
    let spawner = r.node()?;
    let seq = r.u64()?;
    Ok(SubtxnId { spawner, seq })
}

fn put_read_observation(w: &mut ByteWriter, o: &ReadObservation) {
    w.key(o.key);
    put_opt_version(w, o.version);
    w.value(&o.value);
}

fn get_read_observation(r: &mut ByteReader<'_>) -> Result<ReadObservation, WireError> {
    let key = r.key()?;
    let version = get_opt_version(r)?;
    let value = r.value()?;
    Ok(ReadObservation {
        key,
        version,
        value,
    })
}

fn put_counter_rows(w: &mut ByteWriter, rows: &[(NodeId, u64)]) {
    w.len(rows.len());
    for &(n, c) in rows {
        w.node(n);
        w.u64(c);
    }
}

fn get_counter_rows(r: &mut ByteReader<'_>) -> Result<Vec<(NodeId, u64)>, WireError> {
    let n = r.read_len()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let node = r.node()?;
        let count = r.u64()?;
        rows.push((node, count));
    }
    Ok(rows)
}

fn put_counter_snapshot(w: &mut ByteWriter, s: &CounterSnapshot) {
    w.version(s.version);
    put_counter_rows(w, &s.requests_to);
    put_counter_rows(w, &s.completions_from);
}

fn get_counter_snapshot(r: &mut ByteReader<'_>) -> Result<CounterSnapshot, WireError> {
    let version = r.version()?;
    let requests_to = get_counter_rows(r)?;
    let completions_from = get_counter_rows(r)?;
    Ok(CounterSnapshot {
        version,
        requests_to,
        completions_from,
    })
}

impl Msg {
    /// Encode into one complete frame (header + payload). Fails only when
    /// a payload exceeds the frame bound — in practice a plan large enough
    /// to overflow `MAX_FRAME_PAYLOAD` (1 MiB).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = ByteWriter::new();
        let kind = match self {
            Msg::Submit {
                txn,
                kind,
                plan,
                client,
                fail_node,
            } => {
                w.txn(*txn);
                w.txn_kind(*kind);
                w.sub_plan(plan);
                w.node(*client);
                put_opt_node(&mut w, *fail_node);
                tag::SUBMIT
            }
            Msg::TxnDone {
                txn,
                version,
                committed,
            } => {
                w.txn(*txn);
                w.version(*version);
                put_bool(&mut w, *committed);
                tag::TXN_DONE
            }
            Msg::ReadResults { txn, reads } => {
                w.txn(*txn);
                w.len(reads.len());
                for o in reads {
                    put_read_observation(&mut w, o);
                }
                tag::READ_RESULTS
            }
            Msg::Subtxn {
                txn,
                kind,
                version,
                plan,
                parent_sub,
                client,
                fail_node,
            } => {
                w.txn(*txn);
                w.txn_kind(*kind);
                w.version(*version);
                w.sub_plan(plan);
                put_subtxn_id(&mut w, *parent_sub);
                w.node(*client);
                put_opt_node(&mut w, *fail_node);
                tag::SUBTXN
            }
            Msg::SubtreeDone {
                txn,
                parent_sub,
                participants,
                clean,
            } => {
                w.txn(*txn);
                put_subtxn_id(&mut w, *parent_sub);
                w.len(participants.len());
                for &p in participants {
                    w.node(p);
                }
                put_bool(&mut w, *clean);
                tag::SUBTREE_DONE
            }
            Msg::Compensate { txn, version } => {
                w.txn(*txn);
                w.version(*version);
                tag::COMPENSATE
            }
            Msg::XpResolve { txn } => {
                w.txn(*txn);
                tag::XP_RESOLVE
            }
            Msg::StartAdvancement { vu_new } => {
                w.version(*vu_new);
                tag::START_ADVANCEMENT
            }
            Msg::AdvanceAck { vu_new } => {
                w.version(*vu_new);
                tag::ADVANCE_ACK
            }
            Msg::ReadCounters { round, version } => {
                w.u64(*round);
                w.version(*version);
                tag::READ_COUNTERS
            }
            Msg::CountersReport {
                round,
                version,
                snapshot,
            } => {
                w.u64(*round);
                w.version(*version);
                put_counter_snapshot(&mut w, snapshot);
                tag::COUNTERS_REPORT
            }
            Msg::AdvanceRead { vr_new } => {
                w.version(*vr_new);
                tag::ADVANCE_READ
            }
            Msg::AdvanceReadAck { vr_new } => {
                w.version(*vr_new);
                tag::ADVANCE_READ_ACK
            }
            Msg::Gc { vr_new } => {
                w.version(*vr_new);
                tag::GC
            }
            Msg::GcAck { vr_new } => {
                w.version(*vr_new);
                tag::GC_ACK
            }
            Msg::TriggerAdvancement => tag::TRIGGER_ADVANCEMENT,
            Msg::NcPrepare { txn } => {
                w.txn(*txn);
                tag::NC_PREPARE
            }
            Msg::NcVote { txn, node, yes } => {
                w.txn(*txn);
                w.node(*node);
                put_bool(&mut w, *yes);
                tag::NC_VOTE
            }
            Msg::NcDecision { txn, commit } => {
                w.txn(*txn);
                put_bool(&mut w, *commit);
                tag::NC_DECISION
            }
            Msg::ReleaseLocks { txn } => {
                w.txn(*txn);
                tag::RELEASE_LOCKS
            }
        };
        encode_frame(MSG_WIRE_VERSION, kind, &w.into_bytes())
    }

    /// Decode one complete frame produced by [`Msg::encode`]. Borrows the
    /// input throughout — only the structured fields allocate. Never
    /// panics on malformed input: truncation, corruption (checksum), an
    /// unknown version or kind, and trailing payload bytes all yield
    /// `Err`.
    pub fn decode(bytes: &[u8]) -> Result<Msg, WireError> {
        let (header, payload) = decode_frame(bytes)?;
        if header.version != MSG_WIRE_VERSION {
            return Err(WireError("unsupported message protocol version"));
        }
        let mut r = ByteReader::new(payload);
        let msg = match header.kind {
            tag::SUBMIT => {
                let txn = r.txn()?;
                let kind = r.txn_kind()?;
                let plan = r.sub_plan()?;
                let client = r.node()?;
                let fail_node = get_opt_node(&mut r)?;
                Msg::Submit {
                    txn,
                    kind,
                    plan,
                    client,
                    fail_node,
                }
            }
            tag::TXN_DONE => {
                let txn = r.txn()?;
                let version = r.version()?;
                let committed = get_bool(&mut r)?;
                Msg::TxnDone {
                    txn,
                    version,
                    committed,
                }
            }
            tag::READ_RESULTS => {
                let txn = r.txn()?;
                let n = r.read_len()?;
                let mut reads = Vec::with_capacity(n);
                for _ in 0..n {
                    reads.push(get_read_observation(&mut r)?);
                }
                Msg::ReadResults { txn, reads }
            }
            tag::SUBTXN => {
                let txn = r.txn()?;
                let kind = r.txn_kind()?;
                let version = r.version()?;
                let plan = r.sub_plan()?;
                let parent_sub = get_subtxn_id(&mut r)?;
                let client = r.node()?;
                let fail_node = get_opt_node(&mut r)?;
                Msg::Subtxn {
                    txn,
                    kind,
                    version,
                    plan,
                    parent_sub,
                    client,
                    fail_node,
                }
            }
            tag::SUBTREE_DONE => {
                let txn = r.txn()?;
                let parent_sub = get_subtxn_id(&mut r)?;
                let n = r.read_len()?;
                let mut participants = Vec::with_capacity(n);
                for _ in 0..n {
                    participants.push(r.node()?);
                }
                let clean = get_bool(&mut r)?;
                Msg::SubtreeDone {
                    txn,
                    parent_sub,
                    participants,
                    clean,
                }
            }
            tag::COMPENSATE => {
                let txn = r.txn()?;
                let version = r.version()?;
                Msg::Compensate { txn, version }
            }
            tag::XP_RESOLVE => Msg::XpResolve { txn: r.txn()? },
            tag::START_ADVANCEMENT => Msg::StartAdvancement {
                vu_new: r.version()?,
            },
            tag::ADVANCE_ACK => Msg::AdvanceAck {
                vu_new: r.version()?,
            },
            tag::READ_COUNTERS => {
                let round = r.u64()?;
                let version = r.version()?;
                Msg::ReadCounters { round, version }
            }
            tag::COUNTERS_REPORT => {
                let round = r.u64()?;
                let version = r.version()?;
                let snapshot = get_counter_snapshot(&mut r)?;
                Msg::CountersReport {
                    round,
                    version,
                    snapshot,
                }
            }
            tag::ADVANCE_READ => Msg::AdvanceRead {
                vr_new: r.version()?,
            },
            tag::ADVANCE_READ_ACK => Msg::AdvanceReadAck {
                vr_new: r.version()?,
            },
            tag::GC => Msg::Gc {
                vr_new: r.version()?,
            },
            tag::GC_ACK => Msg::GcAck {
                vr_new: r.version()?,
            },
            tag::TRIGGER_ADVANCEMENT => Msg::TriggerAdvancement,
            tag::NC_PREPARE => Msg::NcPrepare { txn: r.txn()? },
            tag::NC_VOTE => {
                let txn = r.txn()?;
                let node = r.node()?;
                let yes = get_bool(&mut r)?;
                Msg::NcVote { txn, node, yes }
            }
            tag::NC_DECISION => {
                let txn = r.txn()?;
                let commit = get_bool(&mut r)?;
                Msg::NcDecision { txn, commit }
            }
            tag::RELEASE_LOCKS => Msg::ReleaseLocks { txn: r.txn()? },
            _ => return Err(WireError("unknown Msg frame kind")),
        };
        if !r.is_exhausted() {
            return Err(WireError("trailing bytes after Msg payload"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{Key, SubtxnPlan, TxnId, TxnKind, UpdateOp, Value};

    fn sample_plan() -> SubtxnPlan {
        let child = SubtxnPlan::new(NodeId(1)).update(Key(9), UpdateOp::Add(4));
        SubtxnPlan::new(NodeId(0))
            .read(Key(1))
            .update(Key(2), UpdateOp::Append { amount: 1, tag: 7 })
            .child(child)
    }

    /// One instance of every variant — kept in sync with `msg.rs` by the
    /// exhaustiveness of `Msg::encode`'s match.
    pub(crate) fn every_variant() -> Vec<Msg> {
        let txn = TxnId::new(42, NodeId(3));
        let sub = SubtxnId {
            spawner: NodeId(2),
            seq: 17,
        };
        vec![
            Msg::Submit {
                txn,
                kind: TxnKind::Commuting,
                plan: sample_plan(),
                client: NodeId(9),
                fail_node: Some(NodeId(1)),
            },
            Msg::TxnDone {
                txn,
                version: VersionNo(5),
                committed: true,
            },
            Msg::ReadResults {
                txn,
                reads: vec![ReadObservation {
                    key: Key(7),
                    version: Some(VersionNo(2)),
                    value: Value::Counter(-3),
                }],
            },
            Msg::Subtxn {
                txn,
                kind: TxnKind::NonCommuting,
                version: VersionNo(4),
                plan: sample_plan(),
                parent_sub: sub,
                client: NodeId(9),
                fail_node: None,
            },
            Msg::SubtreeDone {
                txn,
                parent_sub: sub,
                participants: vec![NodeId(0), NodeId(5)],
                clean: false,
            },
            Msg::Compensate {
                txn,
                version: VersionNo(3),
            },
            Msg::XpResolve { txn },
            Msg::StartAdvancement {
                vu_new: VersionNo(8),
            },
            Msg::AdvanceAck {
                vu_new: VersionNo(8),
            },
            Msg::ReadCounters {
                round: 6,
                version: VersionNo(7),
            },
            Msg::CountersReport {
                round: 6,
                version: VersionNo(7),
                snapshot: CounterSnapshot {
                    version: VersionNo(7),
                    requests_to: vec![(NodeId(0), 11), (NodeId(1), 0)],
                    completions_from: vec![(NodeId(2), 9)],
                },
            },
            Msg::AdvanceRead {
                vr_new: VersionNo(8),
            },
            Msg::AdvanceReadAck {
                vr_new: VersionNo(8),
            },
            Msg::Gc {
                vr_new: VersionNo(8),
            },
            Msg::GcAck {
                vr_new: VersionNo(8),
            },
            Msg::TriggerAdvancement,
            Msg::NcPrepare { txn },
            Msg::NcVote {
                txn,
                node: NodeId(4),
                yes: true,
            },
            Msg::NcDecision { txn, commit: false },
            Msg::ReleaseLocks { txn },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in every_variant() {
            let bytes = msg.encode().expect("encode");
            let back = Msg::decode(&bytes).expect("decode");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let msg = Msg::TriggerAdvancement;
        let payload = [0u8; 1];
        let framed = encode_frame(MSG_WIRE_VERSION, 15, &payload).unwrap();
        assert!(Msg::decode(&framed).is_err());
        let _ = msg; // exercised for symmetry with the clean round trip
    }

    #[test]
    fn wrong_version_rejected() {
        let framed = encode_frame(MSG_WIRE_VERSION + 1, 15, &[]).unwrap();
        assert_eq!(
            Msg::decode(&framed),
            Err(WireError("unsupported message protocol version"))
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let framed = encode_frame(MSG_WIRE_VERSION, 200, &[]).unwrap();
        assert_eq!(
            Msg::decode(&framed),
            Err(WireError("unknown Msg frame kind"))
        );
    }
}
