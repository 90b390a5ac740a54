//! The workload-driver actor, shared by every engine.
//!
//! The client owns the run's ground truth: it assigns transaction ids,
//! submits plans at their scheduled arrival times, and fills in the
//! [`TxnRecord`]s that the analysis crate summarises and audits. It is
//! generic over the engine's message type through [`ProtocolMsg`], so the
//! 3V engine and all three baselines are driven by the exact same code.

use threev_analysis::{TxnRecord, TxnStatus};
use threev_model::{NodeId, TxnId, TxnPlan};
use threev_sim::{Actor, Ctx, SimTime};

use crate::msg::{ClientEvent, ProtocolMsg};

/// One scheduled transaction arrival.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Virtual time the client submits the transaction.
    pub at: SimTime,
    /// The plan.
    pub plan: TxnPlan,
    /// Fault injection: the node whose subtransaction will abort
    /// (experiment X10). `None` for normal transactions.
    pub fail_node: Option<NodeId>,
}

impl Arrival {
    /// A normal arrival.
    pub fn at(at: SimTime, plan: TxnPlan) -> Self {
        Arrival {
            at,
            plan,
            fail_node: None,
        }
    }

    /// An arrival whose subtransaction at `node` will abort and compensate.
    pub fn failing_at(at: SimTime, plan: TxnPlan, node: NodeId) -> Self {
        Arrival {
            at,
            plan,
            fail_node: Some(node),
        }
    }
}

/// The client actor: submits [`Arrival`]s in time order and records what
/// comes back.
pub struct ClientActor<M> {
    arrivals: Vec<Arrival>,
    next: usize,
    next_seq: u64,
    /// One record per submitted transaction, until taken (see
    /// [`ClientActor::take_finished`]), in strictly increasing `TxnId`
    /// order (see [`ClientActor::push_record`]), so lookups need no index.
    records: Vec<TxnRecord>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: ProtocolMsg> ClientActor<M> {
    /// New client over `arrivals` (will be sorted by time).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.at);
        ClientActor {
            arrivals,
            next: 0,
            next_seq: 0,
            records: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Records collected so far and not taken (complete after the run
    /// quiesces).
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Consume the client, returning its records.
    pub fn into_records(self) -> Vec<TxnRecord> {
        self.records
    }

    fn submit_due(&mut self, ctx: &mut Ctx<'_, M>) {
        while self.next < self.arrivals.len() && self.arrivals[self.next].at <= ctx.now() {
            let arrival = self.arrivals[self.next].clone();
            self.next += 1;
            let root = arrival.plan.root.node;
            let txn = TxnId::new(self.next_seq, root);
            self.next_seq += 1;

            // Ground truth for the auditor: journal keys this plan appends
            // to. (Counters cannot be audited per-writer; journals can.)
            let journal_keys = arrival.plan.journal_keys();

            self.push_record(TxnRecord::submitted(
                txn,
                arrival.plan.kind,
                ctx.now(),
                journal_keys,
            ));
            ctx.send_tagged(
                root,
                M::submit(
                    txn,
                    arrival.plan.kind,
                    arrival.plan.root,
                    ctx.me(),
                    arrival.fail_node,
                ),
                "submit",
            );
        }
        self.schedule_next(ctx);
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_, M>) {
        if let Some(a) = self.arrivals.get(self.next) {
            ctx.schedule(a.at.since(ctx.now()), 0);
        }
    }

    /// Append a record. Both submit paths hand out ids in increasing
    /// `TxnId` order: scheduled arrivals from `next_seq`, external
    /// submissions from the caller's own monotone counter.
    fn push_record(&mut self, record: TxnRecord) {
        debug_assert!(
            self.records.last().is_none_or(|last| last.id < record.id),
            "client records must arrive in increasing TxnId order ({:?} after {:?})",
            record.id,
            self.records.last().map(|r| r.id)
        );
        self.records.push(record);
    }

    /// The record of `txn`. The newest transaction is the likeliest to
    /// complete next, so it is checked before the binary search.
    fn record_mut(&mut self, txn: TxnId) -> Option<&mut TxnRecord> {
        let i = self.record_index(txn)?;
        Some(&mut self.records[i])
    }

    fn record_index(&self, txn: TxnId) -> Option<usize> {
        match self.records.last() {
            Some(last) if last.id == txn => Some(self.records.len() - 1),
            _ => self.records.binary_search_by_key(&txn, |r| r.id).ok(),
        }
    }

    /// Remove and return the record of `txn` if it has finished; an
    /// in-flight or unknown transaction returns `None` and nothing moves.
    ///
    /// Call it only after the run has reached quiescence. A finished
    /// record can still receive a late abort report while messages are in
    /// flight (the completion chain and the compensation path race, see
    /// the `ClientEvent::Done` arm of `on_message`); once the record is
    /// taken, such a report finds nothing and is dropped.
    pub fn take_finished(&mut self, txn: TxnId) -> Option<TxnRecord> {
        let i = self.record_index(txn)?;
        if self.records[i].status == TxnStatus::InFlight {
            return None;
        }
        Some(self.records.remove(i))
    }

    /// Register a transaction submitted from *outside* the arrival list —
    /// the network front end injects `Msg::Submit` directly into the
    /// simulation, then calls this so the completion that bounces back to
    /// the client actor lands in a known record instead of being dropped
    /// by [`record_mut`]. The caller owns id assignment; `kind` and
    /// `journal_keys` mirror what [`submit_due`](Self::submit_due) records
    /// for scheduled arrivals.
    pub fn register_external(
        &mut self,
        txn: TxnId,
        kind: threev_model::TxnKind,
        at: SimTime,
        journal_keys: Vec<threev_model::Key>,
    ) {
        self.push_record(TxnRecord::submitted(txn, kind, at, journal_keys));
    }
}

impl<M: ProtocolMsg> Actor for ClientActor<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _token: u64) {
        self.submit_due(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, msg: M) {
        let Some(event) = msg.client_event() else {
            return;
        };
        let now = ctx.now();
        match event {
            ClientEvent::Done {
                txn,
                version,
                committed,
            } => {
                if let Some(rec) = self.record_mut(txn) {
                    if rec.completed.is_none() {
                        rec.completed = Some(now);
                    }
                    // An abort report always wins: the completion chain and
                    // the compensation path race (see node::tree_complete).
                    if !committed {
                        rec.status = TxnStatus::Aborted;
                    } else if rec.status == TxnStatus::InFlight {
                        rec.status = TxnStatus::Committed;
                    }
                    if rec.version.is_none() {
                        rec.version = version;
                    }
                }
            }
            ClientEvent::Reads { txn, reads } => {
                if let Some(rec) = self.record_mut(txn) {
                    rec.reads.extend(reads);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{Key, SubtxnPlan, TxnKind, UpdateOp};

    /// Minimal message type standing in for an engine.
    #[derive(Debug, Clone)]
    enum FakeMsg {
        Submit {
            txn: TxnId,
            #[allow(dead_code)]
            kind: TxnKind,
        },
        Done {
            txn: TxnId,
        },
    }

    impl ProtocolMsg for FakeMsg {
        fn submit(
            txn: TxnId,
            kind: TxnKind,
            _plan: SubtxnPlan,
            _client: NodeId,
            _fail: Option<NodeId>,
        ) -> Self {
            FakeMsg::Submit { txn, kind }
        }
        fn client_event(self) -> Option<ClientEvent> {
            match self {
                FakeMsg::Done { txn } => Some(ClientEvent::Done {
                    txn,
                    version: None,
                    committed: true,
                }),
                _ => None,
            }
        }
    }

    /// Echo node: acks every submission.
    struct EchoNode;
    impl Actor for EchoNode {
        type Msg = FakeMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, FakeMsg>, from: NodeId, msg: FakeMsg) {
            if let FakeMsg::Submit { txn, .. } = msg {
                ctx.send(from, FakeMsg::Done { txn });
            }
        }
    }

    enum TestActor {
        Node(EchoNode),
        Client(ClientActor<FakeMsg>),
    }
    impl Actor for TestActor {
        type Msg = FakeMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, FakeMsg>) {
            if let TestActor::Client(c) = self {
                c.on_start(ctx)
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, FakeMsg>, from: NodeId, msg: FakeMsg) {
            match self {
                TestActor::Node(n) => n.on_message(ctx, from, msg),
                TestActor::Client(c) => c.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, FakeMsg>, token: u64) {
            if let TestActor::Client(c) = self {
                c.on_timer(ctx, token)
            }
        }
    }

    fn plan(journal: bool) -> TxnPlan {
        let mut p = SubtxnPlan::new(NodeId(0)).update(Key(1), UpdateOp::Add(1));
        if journal {
            p = p.update(Key(2), UpdateOp::Append { amount: 5, tag: 1 });
        }
        TxnPlan::commuting(p)
    }

    #[test]
    fn submits_in_order_and_records_completions() {
        use threev_sim::{SimConfig, SimTime, Simulation};
        let arrivals = vec![
            Arrival::at(SimTime(3_000), plan(false)),
            Arrival::at(SimTime(1_000), plan(true)),
        ];
        let client = ClientActor::<FakeMsg>::new(arrivals);
        let mut sim = Simulation::new(
            vec![TestActor::Node(EchoNode), TestActor::Client(client)],
            SimConfig::seeded(1),
        );
        sim.run_to_quiescence(SimTime::MAX);
        let TestActor::Client(c) = &sim.actors()[1] else {
            unreachable!()
        };
        let records = c.records();
        assert_eq!(records.len(), 2);
        // Sorted by arrival: the journal plan (t=1ms) got seq 0.
        assert_eq!(records[0].id.seq, 0);
        assert_eq!(records[0].journal_keys_written, vec![Key(2)]);
        assert!(records[1].journal_keys_written.is_empty());
        assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
        assert!(records[0].submitted >= SimTime(1_000));
        assert!(records[0].completed.unwrap() > records[0].submitted);
    }

    /// A simulation of one echo node and a client with no arrivals, whose
    /// records are registered externally as `txns`.
    fn external_sim(txns: &[TxnId]) -> threev_sim::Simulation<TestActor> {
        use threev_sim::{SimConfig, Simulation};
        let mut client = ClientActor::<FakeMsg>::new(Vec::new());
        for &txn in txns {
            client.register_external(txn, TxnKind::Commuting, SimTime::ZERO, Vec::new());
        }
        Simulation::new(
            vec![TestActor::Node(EchoNode), TestActor::Client(client)],
            SimConfig::seeded(1),
        )
    }

    fn client_of(sim: &mut threev_sim::Simulation<TestActor>) -> &mut ClientActor<FakeMsg> {
        match &mut sim.actors_mut()[1] {
            TestActor::Client(c) => c,
            TestActor::Node(_) => unreachable!(),
        }
    }

    /// Deliver a completion of `txn` to the client and run it through.
    fn complete(sim: &mut threev_sim::Simulation<TestActor>, txn: TxnId) {
        sim.inject(NodeId(0), NodeId(1), FakeMsg::Done { txn });
        sim.run_to_quiescence(SimTime::MAX);
    }

    #[test]
    fn take_finished_leaves_in_flight_records_in_place() {
        let txn = TxnId::new(0, NodeId(0));
        let mut sim = external_sim(&[txn]);
        sim.run_to_quiescence(SimTime::MAX);
        let c = client_of(&mut sim);
        assert!(c.take_finished(txn).is_none());
        assert_eq!(c.records().len(), 1);
        assert_eq!(c.records()[0].status, TxnStatus::InFlight);
        // An id that was never registered is not an error either.
        assert!(c.take_finished(TxnId::new(9, NodeId(0))).is_none());
        assert_eq!(c.records().len(), 1);
    }

    #[test]
    fn take_finished_returns_and_removes_a_finished_record() {
        let txn = TxnId::new(0, NodeId(0));
        let mut sim = external_sim(&[txn]);
        complete(&mut sim, txn);
        let c = client_of(&mut sim);
        let rec = c.take_finished(txn).expect("finished record");
        assert_eq!(rec.id, txn);
        assert_eq!(rec.status, TxnStatus::Committed);
        assert!(rec.completed.is_some());
        assert!(c.records().is_empty());
        assert!(c.take_finished(txn).is_none(), "a record is taken once");
    }

    #[test]
    fn completions_land_after_a_middle_record_is_taken() {
        let txns: Vec<TxnId> = (0..3).map(|s| TxnId::new(s, NodeId(0))).collect();
        let mut sim = external_sim(&txns);
        complete(&mut sim, txns[1]);
        let taken = client_of(&mut sim)
            .take_finished(txns[1])
            .expect("finished");
        assert_eq!(taken.id, txns[1]);
        // The neighbours are still found, by the last-record check and by
        // the binary search over what is left.
        complete(&mut sim, txns[2]);
        complete(&mut sim, txns[0]);
        let c = client_of(&mut sim);
        let ids: Vec<TxnId> = c.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![txns[0], txns[2]]);
        assert!(c.records().iter().all(|r| r.status == TxnStatus::Committed));
        assert_eq!(c.take_finished(txns[0]).map(|r| r.id), Some(txns[0]));
        assert_eq!(c.take_finished(txns[2]).map(|r| r.id), Some(txns[2]));
        assert!(c.records().is_empty());
    }
}
