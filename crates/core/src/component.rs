//! The AnyComponent (AC): one generic component, any database function.
//!
//! An AC is a thread draining an event inbox. What the AC *is* at any
//! moment is decided by the events it receives (Figure 2): a transaction
//! executor for `ExecuteTxn`, a pipeline stage for `OpGroup`, an OLAP
//! worker for `QueryQ3`. The loop is non-blocking in the paper's sense
//! (§2.1): an event whose turn has not come (streaming-CC order stamp not
//! yet admissible) is *parked* on its order gate, and the AC keeps
//! processing other events. The loop is also event-driven: when the inbox
//! is empty the AC spins and yields briefly — enough to stay awake across
//! the gaps of a loaded system — and then falls *asleep* in
//! [`Inbox::wait`] until the next send (or the last sender dropping) wakes
//! it. There is no polling interval for a transaction to wait out, and an
//! idle AC never starves collocated components on small hosts.
//!
//! ## Batched wakeups
//!
//! The loop drains a *chunk* of events per wakeup
//! ([`Inbox::drain_into`]) instead of popping one at a time, and executes
//! every op group in the chunk through one amortized dispatch: envelopes
//! are ordered by `(stage, domain, seq)` so each gate and parked-heap is
//! looked up once per run of same-key envelopes, not once per event. With
//! the drivers shipping [`Event::OpBatch`] groups, the per-transaction
//! queue handshake and hash lookups of the unbatched path collapse into
//! per-chunk costs (see DESIGN.md on the batching design).
//!
//! The chunk size itself is adaptive: an [`AdaptiveBatch`] controller fed
//! with the inbox backlog left after each drain grows the chunk when the
//! AC is behind and decays it toward one when the inbox runs dry, so an
//! idle AC never holds a wakeup's worth of latency hostage to a static
//! setting.
//!
//! ## Batched completions
//!
//! Completion notices produced while working through one chunk are not
//! sent per transaction: they collect in a [`CompletionBatcher`] and ship
//! as one [`crate::event::DoneBatch`] per driver channel per wakeup —
//! flushed before the loop blocks, so a waiting driver observes every
//! completion its events produced.
//!
//! ## Query admission windows
//!
//! `QueryQ3` events are the OLAP analogue of the op-group coalescing
//! above: every Q3 request found in one drained chunk is buffered into an
//! *admission window* and executed as ONE shared pipeline
//! ([`exec_q3_shared`]) at the end of the chunk — a single hull-predicate
//! scan per table, one shared build side, per-member refinement at the
//! probe — with each member still receiving its own
//! [`Completion::Query`]. The window is the drain chunk, so sharing needs
//! no global queue, no timers, and no cross-AC coordination: when queries
//! arrive faster than the AC can execute them the backlog itself grows
//! the window (the same mechanism that grows op batches), and an idle AC
//! degrades to singleton windows with the latency of the unshared path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::JoinHandle;

use anydb_common::backoff::Backoff;
use anydb_common::fxmap::FxHashMap;
use anydb_common::metrics::Counter;
use anydb_common::{AcId, TxnId};
use anydb_stream::adaptive::AdaptiveBatch;
use anydb_stream::inbox::{Inbox, InboxSender};
use anydb_stream::spsc::PopState;
use anydb_txn::history::History;
use anydb_workload::tpcc::TpccDb;

use crate::event::{Completion, CompletionBatcher, Event, OpEnvelope, Q3Member, TxnOp, TxnTracker};
use crate::olap::exec_q3_shared;
use crate::ops::{exec_op, exec_whole_txn};

/// Default number of events drained per wakeup when using
/// [`AnyComponent::spawn`]; engines tune it via
/// [`AnyComponent::spawn_with_chunk`].
pub const DEFAULT_DRAIN_CHUNK: usize = 64;

/// A parked op group waiting for its stamp's turn.
struct Parked {
    txn: TxnId,
    ops: Vec<TxnOp>,
    tracker: Arc<TxnTracker>,
}

/// Heap entry ordered by sequence number (min-heap via `Reverse`).
struct ParkedEntry(u64, Parked);

impl PartialEq for ParkedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for ParkedEntry {}
impl PartialOrd for ParkedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ParkedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

/// One running AnyComponent.
pub struct AnyComponent {
    id: AcId,
    db: Arc<TpccDb>,
    history: Option<Arc<History>>,
    inbox: Inbox<Event>,
    /// Next admissible stamp per `(stage, domain)`. Gates are AC-private:
    /// a stage of a domain is owned by exactly one AC at a time.
    gates: FxHashMap<(u32, u32), u64>,
    parked: FxHashMap<(u32, u32), BinaryHeap<Reverse<ParkedEntry>>>,
    /// Transactions completed at this AC (aggregated execution).
    committed: Arc<Counter>,
    /// Controller sizing the per-wakeup drain chunk.
    ctrl: AdaptiveBatch,
}

impl AnyComponent {
    /// Spawns an AC thread with the default (static) drain chunk; returns
    /// its event-stream sender and handle.
    pub fn spawn(
        id: AcId,
        db: Arc<TpccDb>,
        history: Option<Arc<History>>,
        committed: Arc<Counter>,
    ) -> (InboxSender<Event>, JoinHandle<()>) {
        Self::spawn_with_chunk(id, db, history, committed, DEFAULT_DRAIN_CHUNK)
    }

    /// Spawns an AC thread draining a fixed `drain_chunk` events per
    /// wakeup (the static end of the knob; engines pass a controller via
    /// [`AnyComponent::spawn_with_ctrl`]).
    pub fn spawn_with_chunk(
        id: AcId,
        db: Arc<TpccDb>,
        history: Option<Arc<History>>,
        committed: Arc<Counter>,
        drain_chunk: usize,
    ) -> (InboxSender<Event>, JoinHandle<()>) {
        Self::spawn_with_ctrl(
            id,
            db,
            history,
            committed,
            AdaptiveBatch::fixed(drain_chunk),
        )
    }

    /// Spawns an AC thread whose drain chunk is sized by `ctrl`, fed with
    /// the inbox backlog remaining after each drain.
    pub fn spawn_with_ctrl(
        id: AcId,
        db: Arc<TpccDb>,
        history: Option<Arc<History>>,
        committed: Arc<Counter>,
        ctrl: AdaptiveBatch,
    ) -> (InboxSender<Event>, JoinHandle<()>) {
        let (tx, inbox) = Inbox::new();
        let handle = std::thread::Builder::new()
            .name(format!("ac-{id}"))
            .spawn(move || {
                let mut ac = AnyComponent {
                    id,
                    db,
                    history,
                    inbox,
                    gates: FxHashMap::default(),
                    parked: FxHashMap::default(),
                    committed,
                    ctrl,
                };
                ac.run();
            })
            .expect("spawn AC thread");
        (tx, handle)
    }

    fn run(&mut self) {
        let mut backoff = Backoff::new();
        let mut chunk: Vec<Event> = Vec::with_capacity(self.ctrl.max());
        let mut envelopes: Vec<OpEnvelope> = Vec::new();
        let mut queries: Vec<Q3Member> = Vec::new();
        let mut completions = CompletionBatcher::new();
        'outer: loop {
            chunk.clear();
            match self.inbox.drain_into(&mut chunk, self.ctrl.current()) {
                Ok(_) => {
                    backoff.reset();
                    // Coalesce runs of consecutive op-group events into one
                    // amortized dispatch, and Q3 requests into one shared
                    // admission window; handle other events in place so
                    // chunking never reorders them relative to op groups.
                    let mut events = chunk.drain(..);
                    for event in events.by_ref() {
                        match event {
                            Event::OpGroup(env) => envelopes.push(env),
                            Event::OpBatch(mut envs) => envelopes.append(&mut envs),
                            Event::QueryQ3 { query, spec, done } => {
                                queries.push(Q3Member { query, spec, done })
                            }
                            other => {
                                if !envelopes.is_empty() {
                                    self.dispatch_envelopes(&mut envelopes, &mut completions);
                                }
                                if matches!(other, Event::Shutdown) && !queries.is_empty() {
                                    // Queries admitted ahead of the
                                    // shutdown still owe results.
                                    self.exec_query_window(&mut queries, &mut completions);
                                }
                                if self.handle(other, &mut completions) {
                                    // Shutdown: events behind it are
                                    // dropped, as with one-at-a-time
                                    // dispatch.
                                    drop(events);
                                    break 'outer;
                                }
                            }
                        }
                    }
                    if !envelopes.is_empty() {
                        self.dispatch_envelopes(&mut envelopes, &mut completions);
                    }
                    if !queries.is_empty() {
                        self.exec_query_window(&mut queries, &mut completions);
                    }
                    // One DoneBatch per driver channel for the whole
                    // chunk; must precede any wait, or drivers blocked on
                    // these completions would deadlock against us.
                    completions.flush();
                    // Backlog left behind is the depth signal: still deep
                    // means drain more per wakeup, drained dry means decay
                    // toward per-event latency.
                    self.ctrl.observe(self.inbox.len());
                }
                Err(PopState::Empty) => {
                    self.ctrl.observe(0);
                    self.inbox.wait(&mut backoff);
                }
                Err(PopState::Disconnected) => break,
            }
        }
        // Shutdown mid-chunk may have completed work after the last
        // flush; deliver it before the thread exits.
        completions.flush();
        debug_assert!(
            self.parked.values().all(BinaryHeap::is_empty),
            "AC {} shut down with parked events",
            self.id
        );
    }

    /// Handles one non-op-group event; returns `true` on shutdown.
    fn handle(&mut self, event: Event, completions: &mut CompletionBatcher) -> bool {
        match event {
            Event::Shutdown => return true,
            Event::ExecuteTxn { txn, req, done } => {
                let ok = exec_whole_txn(&self.db, txn, &req, self.history.as_deref()).is_ok();
                if ok {
                    self.committed.incr();
                }
                completions.push(&done, Completion::Txn(crate::event::OpDone { txn, ok }));
            }
            Event::OpGroup(..) | Event::OpBatch(..) => {
                unreachable!("op groups are dispatched in batches by run()")
            }
            Event::QueryQ3 { .. } => {
                unreachable!("Q3 queries are grouped into admission windows by run()")
            }
        }
        false
    }

    /// Executes one query admission window: every Q3 request buffered
    /// while draining the current chunk runs as a single shared pipeline,
    /// and each member's result joins the batched completion protocol.
    fn exec_query_window(&self, queries: &mut Vec<Q3Member>, completions: &mut CompletionBatcher) {
        // The pipeline below can run for milliseconds: ship every
        // already-collected completion first so drivers blocked on them
        // do not wait out an OLAP window. (Cheap events like ExecuteTxn
        // deliberately do NOT flush — that would degrade the batched
        // protocol to per-txn sends.)
        completions.flush();
        // One hull-predicate scan per table, one shared build side,
        // per-member refinement at the probe (DESIGN.md §7); a singleton
        // window degrades to the plain columnar path of DESIGN.md §5.
        let specs: Vec<_> = queries.iter().map(|m| m.spec).collect();
        let rows = exec_q3_shared(&self.db, &specs);
        for (member, rows) in queries.drain(..).zip(rows) {
            let Q3Member { query, done, .. } = member;
            // The result joins the batched protocol like any other
            // completion: grouped into this chunk's DoneBatch.
            completions.push(&done, Completion::Query { query, rows });
        }
    }

    /// Admits or parks every envelope, amortizing gate and parked-heap
    /// lookups over runs of same-`(stage, domain)` envelopes. Sorting by
    /// `(stage, domain, seq)` groups the runs and maximizes in-order
    /// admission; it cannot violate correctness because admission order is
    /// defined by the stamps alone.
    fn dispatch_envelopes(
        &mut self,
        envelopes: &mut Vec<OpEnvelope>,
        completions: &mut CompletionBatcher,
    ) {
        envelopes.sort_by_key(|e| (e.stage, e.domain, e.seq.0));
        // (key, next-admissible-stamp) for the run being executed; written
        // back when the run ends.
        let mut run: Option<((u32, u32), u64)> = None;
        for env in envelopes.drain(..) {
            let key = env.gate_key();
            let next = match &mut run {
                Some((k, next)) if *k == key => next,
                _ => {
                    if let Some((k, next)) = run.take() {
                        self.close_run(k, next, completions);
                    }
                    let next = *self.gates.entry(key).or_insert(0);
                    &mut run.insert((key, next)).1
                }
            };
            if env.seq.0 == *next {
                self.exec_group(env.txn, &env.ops, &env.tracker, completions);
                *next += 1;
            } else {
                debug_assert!(
                    env.seq.0 > *next,
                    "stamp {:?} executed twice at {key:?}",
                    env.seq
                );
                self.parked
                    .entry(key)
                    .or_default()
                    .push(Reverse(ParkedEntry(
                        env.seq.0,
                        Parked {
                            txn: env.txn,
                            ops: env.ops,
                            tracker: env.tracker,
                        },
                    )));
            }
        }
        if let Some((k, next)) = run {
            self.close_run(k, next, completions);
        }
    }

    /// Publishes a run's advanced gate and unparks whatever became
    /// admissible behind it.
    fn close_run(&mut self, key: (u32, u32), next: u64, completions: &mut CompletionBatcher) {
        *self.gates.get_mut(&key).expect("gate exists") = next;
        self.drain_parked(key, completions);
    }

    fn drain_parked(&mut self, key: (u32, u32), completions: &mut CompletionBatcher) {
        loop {
            let next = *self.gates.get(&key).expect("gate exists");
            let popped = self.parked.get_mut(&key).and_then(|heap| {
                if heap
                    .peek()
                    .is_some_and(|Reverse(ParkedEntry(seq, _))| *seq == next)
                {
                    heap.pop()
                } else {
                    None
                }
            });
            match popped {
                Some(Reverse(ParkedEntry(_, parked))) => {
                    self.exec_group(parked.txn, &parked.ops, &parked.tracker, completions);
                    *self.gates.get_mut(&key).expect("gate exists") += 1;
                }
                None => return,
            }
        }
    }

    fn exec_group(
        &self,
        txn: TxnId,
        ops: &[TxnOp],
        tracker: &TxnTracker,
        completions: &mut CompletionBatcher,
    ) {
        let mut ok = true;
        for op in ops {
            if let Err(e) = exec_op(&self.db, txn, op, self.history.as_deref()) {
                // Ordered execution has no CC aborts: any failure is an
                // engine bug surfaced to the driver.
                debug_assert!(false, "op failed under ordered execution: {e}");
                ok = false;
                break;
            }
        }
        if let Some(done) = tracker.group_done(ok) {
            completions.push(tracker.done_sender(), Completion::Txn(done));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DoneBatch, OpDone};
    use anydb_txn::sequencer::SeqNo;
    use anydb_workload::tpcc::gen::TxnRequest;
    use anydb_workload::tpcc::{CustomerSelector, PaymentParams, TpccConfig};
    use crossbeam::channel::{unbounded, Receiver};
    use std::time::{Duration, Instant};

    /// Collects `n` transaction completion notices, flattening the batched
    /// protocol (one `DoneBatch` per drained chunk per channel) back into
    /// the per-transaction order the assertions reason about.
    fn recv_flat(rx: &Receiver<DoneBatch>, n: usize) -> Vec<OpDone> {
        let mut out = Vec::new();
        while out.len() < n {
            for c in rx.recv().expect("completion channel open").0 {
                match c {
                    Completion::Txn(done) => out.push(done),
                    Completion::Query { .. } => panic!("unexpected query completion"),
                }
            }
        }
        assert_eq!(out.len(), n, "more completions than expected");
        out
    }

    fn payment(w: i64, amount: f64) -> TxnRequest {
        TxnRequest::Payment(PaymentParams {
            w_id: w,
            d_id: 1,
            c_w_id: w,
            c_d_id: 1,
            customer: CustomerSelector::ById(1),
            amount,
            date: 20_200_101,
        })
    }

    fn env(txn: u64, stage: u32, seq: u64, tracker: Arc<TxnTracker>) -> OpEnvelope {
        OpEnvelope {
            txn: TxnId(txn),
            stage,
            domain: 0,
            seq: SeqNo(seq),
            ops: vec![TxnOp::Skip],
            tracker,
        }
    }

    #[test]
    fn executes_whole_txn_and_acks() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 41).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn(AcId(0), db, None, committed.clone());
        let (done_tx, done_rx) = unbounded();
        tx.send(Event::ExecuteTxn {
            txn: TxnId(1),
            req: payment(1, 10.0),
            done: done_tx,
        });
        let done = recv_flat(&done_rx, 1);
        assert_eq!(
            done,
            vec![OpDone {
                txn: TxnId(1),
                ok: true
            }]
        );
        assert_eq!(committed.get(), 1);
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn op_groups_execute_in_stamp_order_even_when_reversed() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 42).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn(AcId(0), db.clone(), None, committed);
        let (done_tx, done_rx) = unbounded();

        // Send stamps 2, 1, 0 — they must apply as 0, 1, 2. Use district
        // YTD deltas that only produce the right total when ordered
        // additively (any order works for addition), so instead verify
        // completion order via the done channel.
        for seq in [2u64, 1, 0] {
            let tracker = TxnTracker::new(TxnId(seq), 1, done_tx.clone());
            tx.send(Event::OpGroup(OpEnvelope {
                txn: TxnId(seq),
                stage: 0,
                domain: 0,
                seq: SeqNo(seq),
                ops: vec![TxnOp::PayWarehouse { w: 1, amount: 1.0 }],
                tracker,
            }));
        }
        let order: Vec<u64> = recv_flat(&done_rx, 3).iter().map(|d| d.txn.raw()).collect();
        assert_eq!(order, vec![0, 1, 2]);
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn stages_are_independent_gates() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 43).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn(AcId(0), db, None, committed);
        let (done_tx, done_rx) = unbounded();
        // Stage 1 seq 0 must run even though stage 0 waits for seq 0.
        let t1 = TxnTracker::new(TxnId(10), 1, done_tx.clone());
        tx.send(Event::OpGroup(env(10, 0, 1, t1))); // parked: stage 0 expects 0
        let t2 = TxnTracker::new(TxnId(11), 1, done_tx.clone());
        tx.send(Event::OpGroup(env(11, 1, 0, t2)));
        assert_eq!(recv_flat(&done_rx, 1)[0].txn, TxnId(11));
        // Unblock stage 0.
        let t3 = TxnTracker::new(TxnId(12), 1, done_tx);
        tx.send(Event::OpGroup(env(12, 0, 0, t3)));
        let mut rest: Vec<u64> = recv_flat(&done_rx, 2).iter().map(|d| d.txn.raw()).collect();
        rest.sort();
        assert_eq!(rest, vec![10, 12]);
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn op_batch_executes_all_envelopes_in_stamp_order() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 45).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db, None, committed, 8);
        let (done_tx, done_rx) = unbounded();
        // One batch carrying stamps 3,1,2,0 out of order across two
        // stages: all must complete, each stage in stamp order.
        let mut batch = Vec::new();
        for (txn, stage, seq) in [(3u64, 0u32, 1u64), (1, 1, 1), (2, 0, 0), (0, 1, 0)] {
            let tracker = TxnTracker::new(TxnId(txn), 1, done_tx.clone());
            batch.push(env(txn, stage, seq, tracker));
        }
        tx.send(Event::OpBatch(batch));
        let mut done: Vec<u64> = recv_flat(&done_rx, 4).iter().map(|d| d.txn.raw()).collect();
        done.sort();
        assert_eq!(done, vec![0, 1, 2, 3]);
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn batched_chunks_interleave_with_whole_txns() {
        // A chunk mixing ExecuteTxn and op groups must run both kinds.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 46).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db, None, committed.clone(), 16);
        let (done_tx, done_rx) = unbounded();
        let tracker = TxnTracker::new(TxnId(5), 1, done_tx.clone());
        tx.send_many([
            Event::OpGroup(env(5, 0, 0, tracker)),
            Event::ExecuteTxn {
                txn: TxnId(6),
                req: payment(1, 1.0),
                done: done_tx.clone(),
            },
            Event::OpGroup(env(7, 0, 1, TxnTracker::new(TxnId(7), 1, done_tx))),
        ]);
        let mut done: Vec<u64> = recv_flat(&done_rx, 3).iter().map(|d| d.txn.raw()).collect();
        done.sort();
        assert_eq!(done, vec![5, 6, 7]);
        assert_eq!(committed.get(), 1);
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn one_done_batch_per_drained_chunk() {
        // An OpBatch of four single-group transactions arrives as one
        // event, so the AC processes it in one wakeup and must emit
        // exactly ONE DoneBatch carrying all four notices — the batched
        // completion protocol.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 47).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db, None, committed, 8);
        let (done_tx, done_rx) = unbounded();
        let batch: Vec<OpEnvelope> = (0..4u64)
            .map(|i| env(i, 0, i, TxnTracker::new(TxnId(i), 1, done_tx.clone())))
            .collect();
        tx.send(Event::OpBatch(batch));
        let first = done_rx.recv().unwrap();
        assert_eq!(first.0.len(), 4, "completions were not batched: {first:?}");
        assert!(first
            .0
            .iter()
            .all(|c| matches!(c, Completion::Txn(d) if d.ok)));
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn completions_flush_before_olap_queries_run() {
        // A chunk carrying [OpGroup, QueryQ3] on separate channels: the
        // op group's completion must be shipped BEFORE the (expensive) Q3
        // scan runs, so by the time the query result arrives the notice
        // is already waiting.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 48).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db, None, committed, 8);
        let (done_tx, done_rx) = unbounded();
        let (q3_tx, q3_rx) = unbounded();
        tx.send_many([
            Event::OpGroup(env(1, 0, 0, TxnTracker::new(TxnId(1), 1, done_tx))),
            Event::QueryQ3 {
                query: anydb_common::QueryId(9),
                spec: anydb_workload::chbench::Q3Spec::default(),
                done: q3_tx,
            },
        ]);
        let batch = q3_rx.recv().unwrap();
        assert!(matches!(
            batch.0.as_slice(),
            [Completion::Query {
                query: anydb_common::QueryId(9),
                rows: _
            }]
        ));
        // Happens-before: the flush preceded the scan, so this cannot
        // block (and must not be Empty).
        assert_eq!(
            done_rx.try_recv().unwrap().0,
            vec![Completion::Txn(OpDone {
                txn: TxnId(1),
                ok: true
            })]
        );
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn olap_and_txn_completions_share_one_batch_per_channel() {
        // A chunk carrying [OpGroup, QueryQ3] on the SAME channel: the op
        // group's notice flushes before the scan, the query completion
        // ships in the end-of-chunk batch — both on the one done channel,
        // no singleton side path anywhere.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 49).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db, None, committed, 8);
        let (done_tx, done_rx) = unbounded();
        tx.send_many([
            Event::OpGroup(env(1, 0, 0, TxnTracker::new(TxnId(1), 1, done_tx.clone()))),
            Event::QueryQ3 {
                query: anydb_common::QueryId(5),
                spec: anydb_workload::chbench::Q3Spec::default(),
                done: done_tx,
            },
        ]);
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(done_rx.recv().unwrap().0);
        }
        assert_eq!(
            got[0],
            Completion::Txn(OpDone {
                txn: TxnId(1),
                ok: true
            })
        );
        assert!(matches!(
            got[1],
            Completion::Query {
                query: anydb_common::QueryId(5),
                rows: _
            }
        ));
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn query_window_members_each_get_their_own_result() {
        // Several concurrent Q3 requests with different predicates land in
        // one chunk: the AC executes them as ONE shared admission window,
        // and every member must receive the result its exact spec demands
        // (not the hull's).
        use anydb_common::QueryId;
        use anydb_workload::chbench::Q3Spec;
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 50).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db.clone(), None, committed, 8);
        let (done_tx, done_rx) = unbounded();
        let specs = [
            Q3Spec::default(),
            Q3Spec {
                entry_date_max: 20081231,
                ..Q3Spec::default()
            },
            Q3Spec {
                entry_date_max: 20101231,
                ..Q3Spec::default()
            },
            Q3Spec {
                state_prefix: 'C',
                ..Q3Spec::default()
            },
        ];
        tx.send_many(specs.iter().enumerate().map(|(i, spec)| Event::QueryQ3 {
            query: QueryId(i as u64),
            spec: *spec,
            done: done_tx.clone(),
        }));
        let mut got = Vec::new();
        while got.len() < specs.len() {
            got.extend(done_rx.recv().unwrap().0);
        }
        for c in got {
            match c {
                Completion::Query {
                    query: QueryId(i),
                    rows,
                } => {
                    let want = crate::olap::exec_q3_local(&db, &specs[i as usize]);
                    assert_eq!(rows, want, "window member {i} diverged");
                }
                other => panic!("expected query completion, got {other:?}"),
            }
        }
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    #[test]
    fn queries_ahead_of_shutdown_still_answer() {
        // A chunk carrying [QueryQ3, Shutdown]: the buffered window must
        // execute before the AC exits.
        use anydb_common::QueryId;
        use anydb_workload::chbench::Q3Spec;
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 51).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn_with_chunk(AcId(0), db, None, committed, 8);
        let (done_tx, done_rx) = unbounded();
        tx.send_many([
            Event::QueryQ3 {
                query: QueryId(3),
                spec: Q3Spec::default(),
                done: done_tx,
            },
            Event::Shutdown,
        ]);
        handle.join().unwrap();
        let batch = done_rx.try_recv().expect("query answered before exit");
        assert!(matches!(
            batch.0.as_slice(),
            [Completion::Query {
                query: QueryId(3),
                rows: _
            }]
        ));
    }

    #[test]
    fn acts_as_olap_worker() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 44).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn(AcId(0), db, None, committed);
        let (done_tx, done_rx) = unbounded();
        tx.send(Event::QueryQ3 {
            query: anydb_common::QueryId(1),
            spec: anydb_workload::chbench::Q3Spec::default(),
            done: done_tx,
        });
        let batch = done_rx.recv().unwrap();
        match batch.0.as_slice() {
            [Completion::Query { query, rows }] => {
                assert_eq!(*query, anydb_common::QueryId(1));
                assert!(*rows > 0);
            }
            other => panic!("expected one query completion, got {other:?}"),
        }
        tx.send(Event::Shutdown);
        handle.join().unwrap();
    }

    /// Long enough for the AC to use up its spin → yield prelude and fall
    /// asleep in `Inbox::wait`.
    fn go_idle() {
        std::thread::sleep(Duration::from_millis(25));
    }

    /// Joins the AC, failing instead of hanging if it never wakes to exit.
    fn join_within_10s(handle: JoinHandle<()>) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "AC did not exit");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap();
    }

    #[test]
    fn sleeping_ac_wakes_for_every_event_kind() {
        // The AC sleeps with no timeout, so each event sent after an idle
        // gap has only the sender's wake to get it executed.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 52).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn(AcId(0), db, None, committed);
        let (done_tx, done_rx) = unbounded::<DoneBatch>();
        let answer = || {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a sleeping AC was not woken")
                .0
        };

        go_idle();
        tx.send(Event::ExecuteTxn {
            txn: TxnId(1),
            req: payment(1, 10.0),
            done: done_tx.clone(),
        });
        let ok = |txn| vec![Completion::Txn(OpDone { txn, ok: true })];
        assert_eq!(answer(), ok(TxnId(1)));

        go_idle();
        let tracker = TxnTracker::new(TxnId(2), 1, done_tx.clone());
        tx.send(Event::OpGroup(env(2, 0, 0, tracker)));
        assert_eq!(answer(), ok(TxnId(2)));

        go_idle();
        tx.send(Event::QueryQ3 {
            query: anydb_common::QueryId(3),
            spec: anydb_workload::chbench::Q3Spec::default(),
            done: done_tx,
        });
        assert!(matches!(
            answer().as_slice(),
            [Completion::Query {
                query: anydb_common::QueryId(3),
                rows: _
            }]
        ));

        go_idle();
        tx.send(Event::Shutdown);
        join_within_10s(handle);
    }

    #[test]
    fn sleeping_ac_exits_when_every_sender_is_dropped() {
        // No `Event::Shutdown`: the last sender dropping must itself wake
        // the AC so that it observes `Disconnected`.
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 53).unwrap());
        let committed = Arc::new(Counter::new());
        let (tx, handle) = AnyComponent::spawn(AcId(0), db, None, committed);
        let tx2 = tx.clone();
        go_idle();
        drop(tx);
        drop(tx2);
        join_within_10s(handle);
    }
}
