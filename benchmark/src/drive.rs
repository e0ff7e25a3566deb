//! The load generator: one thread that feeds AnyComponents and collects
//! their completions.
//!
//! One generator thread per workload, and it never spins: between sends it
//! blocks in `recv_timeout` on the done channel until the next request is
//! due. (A spinning generator on this 2-core host starves the OLTP AC and
//! turns a ≈90 µs write median into ≈2 ms.) Three kinds of traffic, any of
//! which may run together:
//!
//! * **open-loop writers** send transaction `i` at `start + i / rate`
//!   regardless of completions; latency is measured from that *intended*
//!   time, so a stall is charged to every request it delays, and how late
//!   the generator itself ran is reported separately;
//! * **closed-loop writers** keep a window of transactions in flight (the
//!   benchmark's minimal stand-in for `run_phase`'s driver);
//! * **closed-loop readers** keep a window of `QueryQ3` requests with four
//!   rotating date windows in flight against the OLAP AC.
//!
//! The generator reaches the program only through `InboxSender::send*`,
//! the `Event` constructors, `payment_stage_groups`/`stage_ac`,
//! `Sequencer::stamp` and `TxnTracker::new` — the same calls
//! `examples/morphing.rs` makes.

use std::time::{Duration, Instant};

use anydb_common::{QueryId, TxnId};
use anydb_core::event::{Completion, DoneBatch, Event, OpEnvelope, TxnTracker};
use anydb_core::strategy::{payment_stage_groups, stage_ac};
use anydb_stream::inbox::InboxSender;
use anydb_txn::sequencer::Sequencer;
use anydb_workload::tpcc::gen::TxnRequest;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::data::windowed_q3_spec;
use crate::trace::Tracer;

/// How long after the last send the generator waits for stragglers before
/// declaring them unanswered.
const GRACE: Duration = Duration::from_secs(10);

/// How transactions reach the ACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One `ExecuteTxn` event to the AC owning the home warehouse.
    WholeTxn,
    /// Payments decomposed into stage op groups under streaming CC, as
    /// `examples/morphing.rs` does it: `payment_stage_groups` →
    /// `Sequencer::stamp` → `TxnTracker` → `Event::OpGroup` to `stage_ac`.
    /// The target ACs must be fresh: their order gates and this call's
    /// sequencer both start at stamp 0.
    Staged,
}

/// When transactions are sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Fixed rate in tx/s, independent of completions; ends when the
    /// source is exhausted.
    Open(f64),
    /// This many in flight; ends at the deadline.
    Closed(usize),
}

/// The transaction side of a phase.
pub struct Writers {
    /// Generated requests, in send order.
    pub source: Box<dyn Iterator<Item = TxnRequest>>,
    /// Send schedule.
    pub pace: Pace,
    /// Dispatch shape.
    pub route: Route,
}

/// The query side of a phase.
pub struct Readers {
    /// Queries kept in flight.
    pub window: usize,
    /// Expected row count per rotating spec on a quiesced database; each
    /// answer is checked against it. `None` while writers change the data.
    pub expected: Option<[usize; 4]>,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall-clock seconds from the first send to the last completion.
    pub elapsed_s: f64,
    /// Transactions sent.
    pub txn_sent: u64,
    /// Transactions acknowledged `ok`.
    pub txn_ok: u64,
    /// Payments among the transactions sent (each owes one history row).
    pub payments_sent: u64,
    /// Latency of every acknowledged transaction, µs (from the intended
    /// send time in open loop, from the send in closed loop).
    pub txn_lat_us: Vec<f64>,
    /// Open loop: how far behind schedule each send was, µs.
    pub late_us: Vec<f64>,
    /// Queries sent.
    pub q_sent: u64,
    /// Queries answered.
    pub q_done: u64,
    /// Answers that disagreed with [`Readers::expected`].
    pub q_wrong: u64,
    /// Latency of every answered query, µs.
    pub q_lat_us: Vec<f64>,
    /// `DoneBatch` messages received.
    pub done_batches: u64,
    /// Completions those batches carried.
    pub completions: u64,
}

impl Outcome {
    /// Requests that were sent and never (correctly) answered.
    pub fn failed(&self) -> u64 {
        (self.txn_sent - self.txn_ok) + (self.q_sent - self.q_done) + self.q_wrong
    }

    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.txn_sent + self.q_sent
    }

    /// Completions per `DoneBatch` message.
    pub fn done_batch_size(&self) -> f64 {
        self.completions as f64 / self.done_batches.max(1) as f64
    }
}

/// State of the transaction side while a phase runs.
struct TxnSide {
    source: std::iter::Peekable<Box<dyn Iterator<Item = TxnRequest>>>,
    pace: Pace,
    route: Route,
    sequencer: Sequencer,
    /// Per transaction id: ns since phase start latency is measured from.
    ref_ns: Vec<u64>,
    /// Per transaction id while tracing: `(root span, round-trip span)`.
    spans: Vec<(u32, u32)>,
    inflight: usize,
}

/// State of the query side while a phase runs.
struct QuerySide {
    window: usize,
    expected: Option<[usize; 4]>,
    sent_ns: Vec<u64>,
    spans: Vec<u32>,
    inflight: usize,
}

/// Runs one phase on the calling thread: sends per `writers`/`readers`
/// for `duration`, then waits for everything in flight. `acs` are the
/// OLTP components (`domains` = warehouses, for the sequencer), `olap`
/// the component queries go to.
pub fn drive(
    acs: &[InboxSender<Event>],
    domains: usize,
    olap: Option<&InboxSender<Event>>,
    writers: Option<Writers>,
    readers: Option<Readers>,
    duration: Duration,
    tr: &mut Tracer,
) -> Outcome {
    let (done_tx, done_rx) = unbounded::<DoneBatch>();
    // An open-loop source knows its length: size the per-transaction
    // vectors before the clock starts rather than growing them under it.
    let expected_txns = writers.as_ref().map_or(0, |w| w.source.size_hint().0);
    let mut out = Outcome::default();
    out.txn_lat_us.reserve(expected_txns);
    out.late_us.reserve(expected_txns);
    let mut gen = Generator {
        acs,
        olap,
        done_tx,
        start: Instant::now(),
        txns: writers.map(|w| TxnSide {
            source: w.source.peekable(),
            pace: w.pace,
            route: w.route,
            sequencer: Sequencer::new(domains),
            ref_ns: Vec::with_capacity(expected_txns),
            spans: Vec::new(),
            inflight: 0,
        }),
        queries: readers.map(|r| QuerySide {
            window: r.window,
            expected: r.expected,
            sent_ns: Vec::new(),
            spans: Vec::new(),
            inflight: 0,
        }),
        out,
        tr,
    };
    gen.run(&done_rx, duration);
    gen.out
}

struct Generator<'a> {
    acs: &'a [InboxSender<Event>],
    olap: Option<&'a InboxSender<Event>>,
    done_tx: Sender<DoneBatch>,
    start: Instant,
    txns: Option<TxnSide>,
    queries: Option<QuerySide>,
    out: Outcome,
    tr: &'a mut Tracer,
}

impl Generator<'_> {
    fn since_start(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    /// Span clock (ns since the tracer's epoch) of a phase-relative time.
    fn span_ns(&self, rel_ns: u64) -> u64 {
        self.tr.ns_at(self.start) + rel_ns
    }

    fn run(&mut self, done_rx: &Receiver<DoneBatch>, duration: Duration) {
        let deadline = self.start + duration;
        let mut last_progress = Instant::now();
        loop {
            let now = Instant::now();
            let sending = now < deadline;
            let next_due = self.send_due_txns(now, sending);
            if sending {
                self.refill_queries();
            }
            let source_open = match &mut self.txns {
                Some(t) => match t.pace {
                    Pace::Open(_) => t.source.peek().is_some(),
                    Pace::Closed(_) => sending,
                },
                None => false,
            };
            let inflight = self.txns.as_ref().map_or(0, |t| t.inflight)
                + self.queries.as_ref().map_or(0, |q| q.inflight);
            let readers_open = self.queries.is_some() && sending;
            if !source_open && !readers_open {
                if inflight == 0 {
                    break;
                }
                if last_progress.elapsed() > GRACE {
                    break; // the rest is counted as failed by the caller
                }
            }
            let wait = match next_due {
                Some(due) => due.saturating_duration_since(now),
                None if sending => deadline - now,
                None => Duration::from_millis(100),
            };
            match done_rx.recv_timeout(wait) {
                Ok(batch) => {
                    last_progress = Instant::now();
                    let t_ns = self.since_start(last_progress);
                    self.absorb(batch, t_ns);
                    while let Ok(batch) = done_rx.try_recv() {
                        self.absorb(batch, t_ns);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while `self.done_tx` lives; end the phase
                // rather than loop on a dead channel.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.out.elapsed_s = self.start.elapsed().as_secs_f64();
    }

    /// Sends every transaction that is due; returns when the next open-loop
    /// send is due, if one is scheduled.
    fn send_due_txns(&mut self, now: Instant, sending: bool) -> Option<Instant> {
        let pace = self.txns.as_ref()?.pace;
        match pace {
            Pace::Open(rate) => {
                let interval_ns = 1e9 / rate;
                loop {
                    let side = self.txns.as_mut()?;
                    let i = side.ref_ns.len();
                    let due_ns = (i as f64 * interval_ns) as u64;
                    let due = self.start + Duration::from_nanos(due_ns);
                    if due > now {
                        return side.source.peek().is_some().then_some(due);
                    }
                    let req = side.source.next()?;
                    let late = self.since_start(Instant::now()).saturating_sub(due_ns);
                    self.out.late_us.push(late as f64 / 1e3);
                    self.send_txn(req, due_ns);
                }
            }
            Pace::Closed(window) => {
                while sending && self.txns.as_ref()?.inflight < window {
                    let req = self.txns.as_mut()?.source.next()?;
                    let sent_ns = self.since_start(Instant::now());
                    self.send_txn(req, sent_ns);
                }
                None
            }
        }
    }

    fn send_txn(&mut self, req: TxnRequest, ref_ns: u64) {
        let span_start = self.span_ns(ref_ns);
        let side = self.txns.as_mut().expect("send_txn without writers");
        let id = side.ref_ns.len() as u64;
        side.ref_ns.push(ref_ns);
        side.inflight += 1;
        self.out.txn_sent += 1;
        self.out.payments_sent += matches!(req, TxnRequest::Payment(_)) as u64;
        let tr = &mut *self.tr;
        let root = tr.open_at("txn", 0, id, span_start);
        let n_acs = self.acs.len();
        match side.route {
            Route::WholeTxn => {
                let ac = (req.w_id() - 1).rem_euclid(n_acs as i64) as usize;
                let s = tr.open("stream.inbox.send", root, id);
                self.acs[ac].send(Event::ExecuteTxn {
                    txn: TxnId(id),
                    req,
                    done: self.done_tx.clone(),
                });
                tr.close(s);
            }
            Route::Staged => {
                let TxnRequest::Payment(p) = req else {
                    panic!("staged dispatch decomposes payments only");
                };
                let domain = (p.w_id - 1) as u32;
                let s = tr.open("core.strategy.decompose", root, id);
                let groups = payment_stage_groups(&p);
                tr.close(s);
                let s = tr.open("txn.sequencer.stamp", root, id);
                let seq = side.sequencer.stamp(domain as usize);
                tr.close(s);
                let tracker = TxnTracker::new(TxnId(id), groups.len() as u32, self.done_tx.clone());
                for (stage, ops) in groups {
                    let s = tr.open("stream.inbox.send", root, id);
                    self.acs[stage_ac(stage, n_acs)].send(Event::OpGroup(OpEnvelope {
                        txn: TxnId(id),
                        stage,
                        domain,
                        seq,
                        ops,
                        tracker: tracker.clone(),
                    }));
                    tr.close(s);
                }
            }
        }
        if tr.is_on() {
            let rtt = tr.open("core.component.roundtrip", root, id);
            side.spans.push((root, rtt));
        }
    }

    /// Tops the query window up with one burst send, as `run_phase`'s own
    /// OLAP driver does.
    fn refill_queries(&mut self) {
        let (Some(q), Some(olap)) = (self.queries.as_mut(), self.olap) else {
            return;
        };
        if q.inflight >= q.window {
            return;
        }
        let tracing = self.tr.is_on();
        let sent_ns = self.start.elapsed().as_nanos() as u64;
        let span_start = self.tr.ns_at(self.start) + sent_ns;
        let first = q.sent_ns.len() as u64;
        let n = (q.window - q.inflight) as u64;
        let send = self.tr.open("stream.inbox.send_many", 0, first);
        olap.send_many((first..first + n).map(|qid| Event::QueryQ3 {
            query: QueryId(qid),
            spec: windowed_q3_spec(qid),
            done: self.done_tx.clone(),
        }));
        self.tr.close(send);
        for qid in first..first + n {
            q.sent_ns.push(sent_ns);
            if tracing {
                // Query ids share the request space with transaction ids;
                // the high bit keeps them apart in the span file.
                let req = qid | (1 << 63);
                q.spans.push(self.tr.open_at("q3", 0, req, span_start));
            }
        }
        q.inflight = q.window;
        self.out.q_sent += n;
    }

    fn absorb(&mut self, batch: DoneBatch, t_ns: u64) {
        self.out.done_batches += 1;
        self.out.completions += batch.0.len() as u64;
        let span_end = self.span_ns(t_ns);
        for c in batch.0 {
            match c {
                Completion::Txn(done) => {
                    let side = self.txns.as_mut().expect("txn completion without writers");
                    let i = done.txn.index();
                    side.inflight -= 1;
                    if done.ok {
                        self.out.txn_ok += 1;
                        let lat = t_ns.saturating_sub(side.ref_ns[i]);
                        self.out.txn_lat_us.push(lat as f64 / 1e3);
                    }
                    if let Some(&(root, rtt)) = side.spans.get(i) {
                        self.tr.close_at(rtt, span_end);
                        self.tr.close_at(root, span_end);
                    }
                }
                Completion::Query { query, rows } => {
                    let q = self
                        .queries
                        .as_mut()
                        .expect("query completion without readers");
                    let i = query.index();
                    q.inflight -= 1;
                    self.out.q_done += 1;
                    if q.expected.is_some_and(|e| e[i % 4] != rows) {
                        self.out.q_wrong += 1;
                    }
                    let lat = t_ns.saturating_sub(q.sent_ns[i]);
                    self.out.q_lat_us.push(lat as f64 / 1e3);
                    if let Some(&root) = q.spans.get(i) {
                        self.tr.close_at(root, span_end);
                    }
                }
            }
        }
    }
}
