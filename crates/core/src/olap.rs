//! Streaming OLAP operators for CH-benCHmark Q3.
//!
//! §4 of the paper: OLAP operations are data-intensive, so data streams
//! must bring data to wherever events execute. This module provides both
//! sides of that flow, in two representations:
//!
//! * [`stream_scan`] — the row-path producer: scan a table partition
//!   range, batch the tuples, and push them through a [`FlowSender`]
//!   (which may filter/project en route, possibly offloaded à la DPI),
//! * [`stream_scan_columns`] — the vectorized producer: scan straight
//!   into [`ColumnBatch`] column vectors with projection and filter
//!   **pushdown at the scan** (no per-row `Tuple` clone, no post-hoc
//!   flow pass over already-copied rows), shipped in the columnar wire
//!   encoding,
//! * [`Q3Compute`] — the compute-side consumer: builds hash sets from the
//!   customer and new-order streams, then probes the orders stream —
//!   3 filtered scans and 2 joins, as the paper describes. [`Q3Compute::run`]
//!   consumes row batches; [`Q3Compute::run_columns`] consumes column
//!   batches, building keys straight from `(w, d, id)` column slices and
//!   probing without materializing a single row,
//! * [`exec_q3_local`] — the fully aggregated (single-AC) execution used
//!   by HTAP OLAP workers: snapshot-consistent columnar scans
//!   (`scan_columns_snapshot`, filters pushed down) feeding dense-bitmap
//!   or hash joins over zipped key slices. [`exec_q3_local_rows`] is the
//!   retired row-at-a-time version, kept as the `abl_htap` baseline arm
//!   and as an independent oracle.
//!
//! ## The columnar stream protocol
//!
//! Columnar Q3 streams ship exactly the join-key projections
//! ([`Q3Spec::CUSTOMER_KEY_PROJ`] / [`Q3Spec::ORDER_KEY_PROJ`] /
//! [`Q3Spec::NEWORDER_KEY_PROJ`]) with the spec's filters pushed down to
//! the scan. The compute side therefore does not (and cannot) re-apply
//! filters — the filter columns never cross the wire. This is the late-
//! materialization contract: predicates run where the data lives, keys
//! travel as packed columns, and rows exist only as the final count.

use std::time::{Duration, Instant};

use anydb_common::backoff::Backoff;
use anydb_common::fxmap::{FxHashMap, FxHashSet};
use anydb_common::metrics::{Counter, RobustSnapshot};
use anydb_common::scan::MSG_SCAN_ERROR;
use anydb_common::{
    bitmap_ones, ColPredicate, ColumnBatch, DbError, DbResult, PartitionId, ScanError, ScanReply,
    ScanRequest, Tuple,
};
use anydb_storage::Table;
use anydb_stream::batch::Batch;
use anydb_stream::flow::{ColFlowSender, Flow, FlowSender, FlowStage};
use anydb_stream::link::{DeadlineRecv, LinkReceiver, RecvState};
use anydb_stream::remote::{ScanRequester, ScanResponder};
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::TpccDb;
use bytes::{Buf, Bytes, BytesMut};

/// Scans every partition of `table`, batches rows (`batch_rows` each) and
/// pushes them through the flow. Closes the stream by dropping the sender.
/// Returns the number of tuples scanned (pre-flow).
///
/// Batches are built *during* the scan with an incrementally-maintained
/// byte count (each tuple is measured exactly once, as it is cloned), and
/// each partition's worth ships through the bulk flow path
/// ([`FlowSender::send_batches_blocking`]): one clock read and bulk ring
/// crossings per partition, while every batch keeps its own serialized
/// wire transfer so consumers overlap compute with the in-flight
/// remainder.
pub fn stream_scan(table: &Table, mut flow: FlowSender, batch_rows: usize) -> usize {
    let mut scanned = 0usize;
    for p in 0..table.partition_count() {
        let Ok(part) = table.partition(PartitionId(p)) else {
            continue;
        };
        let mut batches: Vec<Batch> = Vec::new();
        let mut cur = Batch::empty();
        part.scan(|_, row| {
            cur.push(row.tuple().clone());
            scanned += 1;
            if cur.len() == batch_rows {
                batches.push(std::mem::replace(&mut cur, Batch::empty()));
            }
        });
        if !cur.is_empty() {
            batches.push(cur);
        }
        if flow.send_batches_blocking(batches).is_err() {
            return scanned; // consumer gone
        }
    }
    flow.finish();
    scanned
}

/// Vectorized scan producer: materializes each partition straight into
/// [`ColumnBatch`] column vectors with `proj`ection and `pred` filter
/// pushdown (rows failing the predicate are skipped before any value is
/// copied; non-projected columns are never touched), then ships
/// `batch_rows`-row column batches through the flow, pipelined per
/// partition. Returns rows scanned (pre-filter).
pub fn stream_scan_columns(
    table: &Table,
    mut flow: ColFlowSender,
    batch_rows: usize,
    proj: &[usize],
    pred: Option<&ColPredicate>,
) -> usize {
    let mut scanned = 0usize;
    for p in 0..table.partition_count() {
        let mut out = table.column_batch(proj);
        match table.scan_columns(PartitionId(p), proj, pred, &mut out) {
            Ok(n) => scanned += n,
            Err(_) => continue,
        }
        if flow.send_split_blocking(out, batch_rows).is_err() {
            return scanned; // consumer gone
        }
    }
    flow.finish();
    scanned
}

/// A join key: `(w, d, id)` for customers, `(w, d, o)` for orders.
type JoinKey = (i64, i64, i64);

/// Compute-side Q3: consumes three data streams and reports phase timings.
pub struct Q3Compute {
    spec: Q3Spec,
}

/// Result of a compute-side Q3 execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q3ComputeResult {
    /// Qualifying open orders.
    pub rows: usize,
    /// Time to consume both build-side streams and build the hash sets.
    pub build: Duration,
    /// Time to consume and probe the orders stream.
    pub probe: Duration,
    /// Modeled wire bytes received per stream
    /// `[customers, neworders, orders]` — what the link-transfer model
    /// charged for this execution.
    pub stream_bytes: [usize; 3],
}

/// Which of the three Q3 input streams a batch arrived on. Indexes
/// [`Q3ComputeResult::stream_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Q3Stream {
    /// Build side 1 (customer keys).
    Customers = 0,
    /// Build side 2 (open-order keys).
    Neworders = 1,
    /// Probe side.
    Orders = 2,
}

/// A batch consumer plugged into the shared three-stream round-robin
/// loop ([`consume_streams`]); implemented once over row batches and once
/// over column batches.
trait Q3Sink<T> {
    /// Absorbs one batch. `builds_closed` is true once both build-side
    /// streams have finished (probe directly instead of staging).
    fn absorb(&mut self, stream: Q3Stream, batch: T, builds_closed: bool);
    /// Both build streams just closed: probe everything staged.
    fn close_builds(&mut self);
}

/// Outcome of one non-blocking visit to a stream.
enum Pull {
    /// Batches were drained into the scratch buffer.
    Got,
    /// Nothing queued (producer still working).
    Idle,
    /// Next message is in flight until the given instant.
    InFlight(Instant),
    /// Producer gone and everything consumed.
    Done,
}

fn pull<T>(rx: &mut LinkReceiver<T>, scratch: &mut Vec<T>, chunk: usize) -> Pull {
    if rx.drain_ready_max(scratch, chunk) > 0 {
        return Pull::Got;
    }
    // Nothing deliverable: classify why via a peeking receive.
    match rx.try_recv() {
        Ok(batch) => {
            // Race: became deliverable between the two calls.
            scratch.push(batch);
            Pull::Got
        }
        Err(RecvState::NotReady(at)) => Pull::InFlight(at),
        Err(RecvState::Empty) => Pull::Idle,
        Err(RecvState::Disconnected) => Pull::Done,
    }
}

/// The shared consumption loop: all three streams are drained
/// **round-robin** with [`LinkReceiver::drain_ready_max`] (one clock read
/// per drained chunk), so build and probe transfers overlap instead of
/// serializing — both build sides fill their hash sets concurrently, and
/// order batches arriving early are absorbed immediately (the sinks
/// pre-filter and stage only join keys, so staging is small) until the
/// builds close. A sequential consumer would instead leave two producers
/// blocked on ring backpressure while it worked through the first stream.
/// Returns `(build, probe)` phase durations.
fn consume_streams<T, S: Q3Sink<T>>(
    sink: &mut S,
    mut customers: LinkReceiver<T>,
    mut neworders: LinkReceiver<T>,
    mut orders: LinkReceiver<T>,
) -> (Duration, Duration) {
    /// Chunk of one round-robin visit; bounds per-stream bias.
    const CHUNK: usize = 64;

    let build_start = Instant::now();
    let (mut cust_done, mut no_done, mut ord_done) = (false, false, false);
    let mut build: Option<Duration> = None;
    let mut scratch: Vec<T> = Vec::new();
    let mut backoff = Backoff::new();

    while !(cust_done && no_done && ord_done) {
        let mut progressed = false;
        let mut idle_seen = false;
        // Earliest in-flight delivery this round, to sleep precisely.
        let mut wake: Option<Instant> = None;
        let mut note = |p: &Pull, done: &mut bool, progressed: &mut bool| match p {
            Pull::Got => *progressed = true,
            Pull::Done => {
                *done = true;
                *progressed = true;
            }
            Pull::InFlight(at) => wake = Some(wake.map_or(*at, |w| w.min(*at))),
            Pull::Idle => idle_seen = true,
        };

        let builds_closed = build.is_some();
        if !cust_done {
            let p = pull(&mut customers, &mut scratch, CHUNK);
            note(&p, &mut cust_done, &mut progressed);
            for batch in scratch.drain(..) {
                sink.absorb(Q3Stream::Customers, batch, builds_closed);
            }
        }
        if !no_done {
            let p = pull(&mut neworders, &mut scratch, CHUNK);
            note(&p, &mut no_done, &mut progressed);
            for batch in scratch.drain(..) {
                sink.absorb(Q3Stream::Neworders, batch, builds_closed);
            }
        }
        if !ord_done {
            let p = pull(&mut orders, &mut scratch, CHUNK);
            note(&p, &mut ord_done, &mut progressed);
            for batch in scratch.drain(..) {
                sink.absorb(Q3Stream::Orders, batch, builds_closed);
            }
        }

        if cust_done && no_done && build.is_none() {
            build = Some(build_start.elapsed());
            sink.close_builds();
        }

        if progressed {
            backoff.reset();
        } else if let (Some(at), false) = (wake, idle_seen) {
            // Every unfinished stream has a message in flight: sleep
            // until the earliest modeled delivery. (With an idle
            // stream in the mix its producer could deliver sooner, so
            // fall through to the short backoff instead.)
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        } else {
            backoff.wait();
        }
    }

    let build = build.unwrap_or_else(|| build_start.elapsed());
    let probe = build_start.elapsed().saturating_sub(build);
    (build, probe)
}

/// Shared join state of both sinks: the two build-side key sets, the
/// early-arrival staging area, and the result counter.
#[derive(Default)]
struct JoinState {
    cust_keys: FxHashSet<JoinKey>,
    open_keys: FxHashSet<JoinKey>,
    /// Probe keys of order rows that passed the filter before both
    /// builds closed — only the two join keys are staged, not the
    /// rows, so early-arrival buffering costs 48 bytes per row.
    staged: Vec<(JoinKey, JoinKey)>,
    rows: usize,
    bytes: [usize; 3],
}

impl JoinState {
    #[inline]
    fn probe(&mut self, cust_key: JoinKey, order_key: JoinKey) {
        if self.cust_keys.contains(&cust_key) && self.open_keys.contains(&order_key) {
            self.rows += 1;
        }
    }

    fn close_builds(&mut self) {
        let staged = std::mem::take(&mut self.staged);
        for (cust_key, order_key) in staged {
            self.probe(cust_key, order_key);
        }
    }
}

/// Row-batch sink: applies the spec's filters defensively (idempotent —
/// producers may or may not have pre-filtered) and extracts keys tuple
/// by tuple.
struct RowSink {
    spec: Q3Spec,
    join: JoinState,
}

impl Q3Sink<Batch> for RowSink {
    fn absorb(&mut self, stream: Q3Stream, batch: Batch, builds_closed: bool) {
        self.join.bytes[stream as usize] += batch.bytes();
        match stream {
            Q3Stream::Customers => {
                for t in batch.tuples() {
                    if self.spec.customer_filter(t) {
                        self.join.cust_keys.insert(Q3Spec::customer_join_key(t));
                    }
                }
            }
            Q3Stream::Neworders => {
                for t in batch.tuples() {
                    self.join.open_keys.insert(Q3Spec::neworder_key(t));
                }
            }
            Q3Stream::Orders => {
                for t in batch.tuples() {
                    if !self.spec.order_filter(t) {
                        continue;
                    }
                    let keys = (Q3Spec::order_customer_key(t), Q3Spec::order_key(t));
                    if builds_closed {
                        self.join.probe(keys.0, keys.1);
                    } else {
                        self.join.staged.push(keys);
                    }
                }
            }
        }
    }

    fn close_builds(&mut self) {
        self.join.close_builds();
    }
}

/// Column-batch sink: builds keys straight from `(w, d, id)` column
/// slices and probes by zipping the key columns — no tuple is ever
/// materialized. Relies on the columnar stream protocol (filters pushed
/// down at the scan, key projections only; see the module docs).
#[derive(Default)]
struct ColSink {
    join: JoinState,
}

/// Borrows the int column at `i`, `None` if absent or mistyped — so a
/// protocol-violating batch degrades to the guarded skip path instead of
/// panicking in the consumer thread.
fn int_column(batch: &ColumnBatch, i: usize) -> Option<&[i64]> {
    batch.columns().get(i)?.ints()
}

/// Borrows the three key columns of a protocol-conforming batch.
fn key_columns(batch: &ColumnBatch) -> Option<(&[i64], &[i64], &[i64])> {
    Some((
        int_column(batch, 0)?,
        int_column(batch, 1)?,
        int_column(batch, 2)?,
    ))
}

impl ColSink {
    /// The join work of [`Q3Sink::absorb`], without the byte accounting —
    /// shared with [`WireSink`], which charges the *encoded frame* length
    /// instead of the in-memory batch estimate.
    fn absorb_cols(&mut self, stream: Q3Stream, batch: ColumnBatch, builds_closed: bool) {
        if batch.is_empty() {
            return;
        }
        // Key columns ship in (w, d, id) order on every stream; orders
        // additionally carry o_c_id as column 3 (ORDER_KEY_PROJ).
        let Some((w, d, id)) = key_columns(&batch) else {
            debug_assert!(false, "columnar Q3 stream violated the key protocol");
            return;
        };
        // Zipped slice iteration: no per-row bounds checks in the hot
        // build/probe loops.
        match stream {
            Q3Stream::Customers => {
                self.join
                    .cust_keys
                    .extend(w.iter().zip(d).zip(id).map(|((&w, &d), &id)| (w, d, id)));
            }
            Q3Stream::Neworders => {
                self.join
                    .open_keys
                    .extend(w.iter().zip(d).zip(id).map(|((&w, &d), &id)| (w, d, id)));
            }
            Q3Stream::Orders => {
                let Some(c) = int_column(&batch, 3) else {
                    debug_assert!(false, "orders stream missing o_c_id column");
                    return;
                };
                let keys = w
                    .iter()
                    .zip(d)
                    .zip(id)
                    .zip(c)
                    .map(|(((&w, &d), &id), &c)| ((w, d, c), (w, d, id)));
                if builds_closed {
                    for (cust_key, order_key) in keys {
                        self.join.probe(cust_key, order_key);
                    }
                } else {
                    self.join.staged.extend(keys);
                }
            }
        }
    }
}

impl Q3Sink<ColumnBatch> for ColSink {
    fn absorb(&mut self, stream: Q3Stream, batch: ColumnBatch, builds_closed: bool) {
        self.join.bytes[stream as usize] += batch.bytes();
        self.absorb_cols(stream, batch, builds_closed);
    }

    fn close_builds(&mut self) {
        self.join.close_builds();
    }
}

/// Wire-frame sink: the consumer end of the remote scan protocol
/// (DESIGN.md §8). Each frame is one encoded [`ScanReply`]; the sink
/// charges the stream its **encoded length** (the bytes the link
/// actually carried), decodes, and feeds the batch through the shared
/// columnar join. The reply's [`anydb_common::ScanSnapshot`] certificate
/// is where a consistency policy would plug in; Q3's monotone counters
/// accept any certified prefix (read-committed or point-in-time), so no
/// reply is ever rejected here.
#[derive(Default)]
struct WireSink {
    inner: ColSink,
}

impl Q3Sink<Bytes> for WireSink {
    fn absorb(&mut self, stream: Q3Stream, frame: Bytes, builds_closed: bool) {
        self.inner.join.bytes[stream as usize] += frame.len();
        match ScanReply::decode(&frame) {
            Ok(reply) => self.inner.absorb_cols(stream, reply.batch, builds_closed),
            Err(_) => {
                // A garbled frame off a modeled link is a protocol bug,
                // not an input condition; skip it in release builds.
                debug_assert!(false, "undecodable scan reply on Q3 stream");
            }
        }
    }

    fn close_builds(&mut self) {
        self.inner.join.close_builds();
    }
}

impl Q3Compute {
    /// New executor for the given spec.
    pub fn new(spec: Q3Spec) -> Self {
        Self { spec }
    }

    /// Runs the row-batch pipeline: build from `customers` and
    /// `neworders`, probe `orders`. Filters are applied defensively on
    /// the compute side too (idempotent), so producers may or may not
    /// pre-filter (beamed flows filter at the source / on the NIC).
    pub fn run(
        &self,
        customers: LinkReceiver<Batch>,
        neworders: LinkReceiver<Batch>,
        orders: LinkReceiver<Batch>,
    ) -> Q3ComputeResult {
        let mut sink = RowSink {
            spec: self.spec,
            join: JoinState::default(),
        };
        let (build, probe) = consume_streams(&mut sink, customers, neworders, orders);
        Q3ComputeResult {
            rows: sink.join.rows,
            build,
            probe,
            stream_bytes: sink.join.bytes,
        }
    }

    /// Runs the vectorized pipeline over columnar streams following the
    /// key protocol (see the module docs): hash sets are built from
    /// column slices and the probe zips the order key columns — filters
    /// already ran at the scans, and no row is materialized anywhere.
    pub fn run_columns(
        &self,
        customers: LinkReceiver<ColumnBatch>,
        neworders: LinkReceiver<ColumnBatch>,
        orders: LinkReceiver<ColumnBatch>,
    ) -> Q3ComputeResult {
        let mut sink = ColSink::default();
        let (build, probe) = consume_streams(&mut sink, customers, neworders, orders);
        Q3ComputeResult {
            rows: sink.join.rows,
            build,
            probe,
            stream_bytes: sink.join.bytes,
        }
    }

    /// Runs the vectorized pipeline over **remote scan protocol** reply
    /// streams: each frame is one encoded [`ScanReply`] (DESIGN.md §8),
    /// decoded here and joined exactly like [`Q3Compute::run_columns`].
    /// `stream_bytes` reports the encoded frame lengths — the bytes the
    /// modeled links actually carried.
    pub fn run_wire(
        &self,
        customers: LinkReceiver<Bytes>,
        neworders: LinkReceiver<Bytes>,
        orders: LinkReceiver<Bytes>,
    ) -> Q3ComputeResult {
        let mut sink = WireSink::default();
        let (build, probe) = consume_streams(&mut sink, customers, neworders, orders);
        Q3ComputeResult {
            rows: sink.inner.join.rows,
            build,
            probe,
            stream_bytes: sink.inner.join.bytes,
        }
    }
}

/// Encodes one remote scan call: the [`ScanRequest`] immediately followed
/// by an en-route [`Flow`] spec ([`Flow::identity`] for "none"). This is
/// the frame a compute AC ships to open a remote pushed-down scan; the
/// storage side splits it back apart with the same two codecs.
///
/// Fails only if `flow` contains a stage with no wire form (an opaque
/// closure filter).
pub fn encode_remote_scan(req: &ScanRequest, flow: &Flow) -> DbResult<Bytes> {
    let mut buf = BytesMut::new();
    req.encode_into(&mut buf);
    flow.encode_into(&mut buf)?;
    Ok(buf.freeze())
}

/// `true` iff every [`FlowStage::Project`] in `flow` stays in bounds when
/// the stages run over batches that start with `arity` columns. Decoded
/// flows come off a wire, and [`ColumnBatch::project`] panics on
/// out-of-range positions — the serve loop must reject, not crash.
fn flow_projections_in_bounds(flow: &Flow, mut arity: usize) -> bool {
    for stage in flow.stages() {
        if let FlowStage::Project(cols) = stage {
            if cols.iter().any(|&c| c >= arity) {
                return false;
            }
            arity = cols.len();
        }
    }
    true
}

/// Observability counters for one scan-serving loop. A garbled or
/// unserveable request used to vanish into a `debug_assert` (silent in
/// release, leaving the requester to hang on a reply that never comes);
/// now every rejection is counted here *and* answered with an encoded
/// [`anydb_common::scan::ScanError`] frame so the remote caller fails
/// with a reason.
#[derive(Debug, Default)]
pub struct ScanServeMetrics {
    /// Request frames that could not be decoded or validated.
    pub dropped_frames: Counter,
    /// [`anydb_common::scan::ScanError`] replies shipped back.
    pub error_replies: Counter,
    /// Requests served successfully.
    pub served: Counter,
}

impl ScanServeMetrics {
    /// Fresh zeroed counters.
    pub const fn new() -> Self {
        Self {
            dropped_frames: Counter::new(),
            error_replies: Counter::new(),
            served: Counter::new(),
        }
    }

    /// This serve loop's contribution to the unified robustness snapshot.
    pub fn snapshot(&self) -> RobustSnapshot {
        RobustSnapshot {
            scans_served: self.served.get(),
            scan_frames_dropped: self.dropped_frames.get(),
            scan_error_replies: self.error_replies.get(),
            ..Default::default()
        }
    }
}

/// The storage-AC side of the remote scan protocol: serves request
/// frames off `responder` until the requester hangs up. Each frame is
/// decoded ([`ScanRequest`] + en-route [`Flow`]), answered by the local
/// [`Table::serve_scan`] (mirror and shared-scan cache untouched by the
/// wire), the flow applied to every reply batch — this is the NIC-offload
/// stage: on an offload link nobody pays for it — and the surviving
/// encoded columns shipped back as one pipelined burst per request.
///
/// Returns total rows scanned pre-filter (producer accounting).
/// Malformed or unserveable frames are counted in `metrics` and answered
/// with a [`anydb_common::scan::ScanError`] frame — the remote caller
/// gets a reason instead of waiting forever on a reply stream that will
/// never produce its partition.
pub fn serve_scan_stream_metered(
    table: &Table,
    mut responder: ScanResponder,
    metrics: &ScanServeMetrics,
) -> usize {
    let mut scanned = 0usize;
    while let Some(frame) = responder.recv_request_blocking() {
        let mut buf = frame;
        let reject = |responder: &mut ScanResponder, reason: &str| {
            metrics.dropped_frames.incr();
            let err = ScanError::new(reason).encode();
            if responder.send_reply(err).is_ok() {
                metrics.error_replies.incr();
            }
        };
        let req = match ScanRequest::decode_from(&mut buf) {
            Ok(req) => req,
            Err(e) => {
                reject(&mut responder, &format!("undecodable scan request: {e}"));
                continue;
            }
        };
        let flow = match Flow::decode(&buf) {
            Ok(flow) if flow_projections_in_bounds(&flow, req.proj.len()) => flow,
            Ok(_) => {
                reject(&mut responder, "flow projection out of bounds");
                continue;
            }
            Err(e) => {
                reject(&mut responder, &format!("undecodable flow spec: {e}"));
                continue;
            }
        };
        let (replies, rows) = match table.serve_scan(&req) {
            Ok(ok) => ok,
            Err(e) => {
                reject(&mut responder, &format!("unserveable scan: {e}"));
                continue;
            }
        };
        scanned += rows;
        metrics.served.incr();
        let frames = replies.into_iter().map(|mut reply| {
            if !flow.is_empty() {
                reply.batch = flow.apply_columns(reply.batch);
            }
            reply.encode()
        });
        if responder.send_replies(frames).is_err() {
            break; // requester gone mid-burst
        }
    }
    scanned
}

/// [`serve_scan_stream_metered`] with throwaway counters, for callers
/// that only want the serve loop.
pub fn serve_scan_stream(table: &Table, responder: ScanResponder) -> usize {
    serve_scan_stream_metered(table, responder, &ScanServeMetrics::new())
}

/// Opens one remote pushed-down scan as a compute AC would: ships the
/// encoded `(request, flow)` frame, closes the request direction, and
/// returns the reply stream to drain plus the request bytes charged to
/// the wire. Panics on a flow with no wire form (caller bug).
pub fn request_remote_scan(
    mut requester: ScanRequester,
    req: &ScanRequest,
    flow: &Flow,
) -> (LinkReceiver<Bytes>, usize) {
    let frame = encode_remote_scan(req, flow).expect("flow has no wire form");
    // An Err means the storage side is already gone; the returned reply
    // receiver will report Disconnected, which consumers treat as
    // end-of-stream — no separate handling needed here.
    let _ = requester.send_request(frame);
    let bytes = requester.bytes_sent();
    (requester.finish_requests(), bytes)
}

/// Retry/timeout policy for [`request_scan_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts (first try included). At least 1.
    pub attempts: usize,
    /// Per-attempt deadline: an attempt whose reply stream has not
    /// completed by then is abandoned and re-issued.
    pub deadline: Duration,
    /// Upper bound on the deterministic jitter added before each retry.
    /// Zero disables jitter. Concurrent requesters sharing one deadline
    /// re-collide on a cut link forever without this — distinct seeds
    /// de-phase their retry storms.
    pub jitter: Duration,
    /// Seed for the jitter sequence (pick per requester).
    pub seed: u64,
}

impl RetryPolicy {
    /// One try, generous deadline — the "reliable link" policy.
    pub const fn single(deadline: Duration) -> Self {
        Self {
            attempts: 1,
            deadline,
            jitter: Duration::ZERO,
            seed: 0,
        }
    }

    /// The jitter slept before re-issuing after `attempt` failed
    /// attempts: a pure splitmix-style hash of `(seed, attempt)` scaled
    /// into `[0, jitter)`, so the sequence is reproducible per seed and
    /// two requesters with different seeds draw unrelated delays.
    pub fn jitter_before(&self, attempt: usize) -> Duration {
        if self.jitter.is_zero() {
            return Duration::ZERO;
        }
        let mut z = self
            .seed
            .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        self.jitter.mul_f64(frac)
    }
}

/// What a retried scan went through (for tests and scenario audits).
/// Passed *into* [`request_scan_with_retry`] by mutable reference so the
/// counters survive — and accumulate across — failed calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanRetryStats {
    /// Attempts issued (1 = first try succeeded).
    pub attempts: usize,
    /// Attempts abandoned on their deadline.
    pub timeouts: usize,
    /// Attempts whose reply stream ended incomplete (lost frames,
    /// storage-side disconnect mid-burst, torn reply bytes).
    pub incomplete: usize,
    /// Calls that ran out of attempts entirely.
    pub exhausted: usize,
}

impl ScanRetryStats {
    /// This requester's contribution to the unified robustness snapshot.
    pub fn snapshot(&self) -> RobustSnapshot {
        RobustSnapshot {
            retry_attempts: self.attempts as u64,
            retry_timeouts: self.timeouts as u64,
            retry_incomplete: self.incomplete as u64,
            retries_exhausted: self.exhausted as u64,
            ..Default::default()
        }
    }
}

/// Checks that a completed reply stream really is the whole answer: every
/// reply's batch rows must add up to its partition's certified
/// `snapshot.matched` count, and (when the caller knows the topology)
/// every expected partition must have reported in. This is what makes
/// re-issuing safe to *decide*: a stream that lost frames to a faulty
/// link is detectably short, never silently truncated.
fn scan_replies_complete(replies: &[ScanReply], expect_partitions: Option<usize>) -> bool {
    // Zero replies is indistinguishable from total loss: a served table
    // always answers with at least one certified (possibly empty) reply
    // per partition.
    if replies.is_empty() {
        return false;
    }
    let mut per_part: FxHashMap<PartitionId, (usize, usize)> = FxHashMap::default();
    for r in replies {
        let e = per_part
            .entry(r.partition)
            .or_insert((0, r.snapshot.matched));
        e.0 += r.batch.rows();
        e.1 = r.snapshot.matched;
    }
    if let Some(n) = expect_partitions {
        if per_part.len() != n {
            return false;
        }
    }
    per_part.values().all(|&(got, want)| got == want)
}

/// Issues a remote pushed-down scan with per-request deadlines and
/// bounded, backed-off retries (DESIGN.md §9.4).
///
/// `connect` opens a fresh requester per attempt (a retry must not trust
/// a connection that just timed out). Each attempt ships the encoded
/// request, then drains the reply stream under `policy.deadline`:
///
/// * a [`anydb_common::scan::ScanError`] frame fails the call
///   immediately with [`DbError::Remote`] — the storage AC answered; the
///   request itself is bad, and retrying it would get the same answer;
/// * a torn frame, deadline expiry, or an incomplete stream (fewer rows
///   than the [`ScanSnapshot`] certificates promise, or a missing
///   partition) abandons the attempt and re-issues after a backoff.
///
/// Re-issuing is safe because scans are read-only and every reply carries
/// its partition's certificate: the caller keeps only the last complete
/// attempt, so a duplicate execution changes nothing downstream.
///
/// [`ScanSnapshot`]: anydb_common::ScanSnapshot
pub fn request_scan_with_retry(
    mut connect: impl FnMut() -> ScanRequester,
    req: &ScanRequest,
    flow: &Flow,
    expect_partitions: Option<usize>,
    policy: RetryPolicy,
    stats: &mut ScanRetryStats,
) -> DbResult<Vec<ScanReply>> {
    let mut backoff = Backoff::new();
    for failed in 0..policy.attempts.max(1) {
        if failed > 0 {
            // De-phase concurrent requesters before re-issuing: without
            // jitter, callers that timed out together retry together and
            // re-collide on whatever cut them off.
            let j = policy.jitter_before(failed);
            if !j.is_zero() {
                std::thread::sleep(j);
            }
        }
        stats.attempts += 1;
        let (mut rx, _bytes) = request_remote_scan(connect(), req, flow);
        let deadline = Instant::now() + policy.deadline;
        let mut replies: Vec<ScanReply> = Vec::new();
        let outcome = loop {
            match rx.recv_deadline(deadline) {
                DeadlineRecv::Msg(frame) => {
                    if frame.chunk().first() == Some(&MSG_SCAN_ERROR) {
                        let reason = ScanError::decode(&frame)
                            .map(|e| e.reason)
                            .unwrap_or_else(|_| "torn scan error frame".to_string());
                        return Err(DbError::Remote(reason));
                    }
                    match ScanReply::decode(&frame) {
                        Ok(reply) => replies.push(reply),
                        // Torn reply bytes: this stream cannot be
                        // trusted; abandon the attempt.
                        Err(_) => break AttemptOutcome::Incomplete,
                    }
                }
                DeadlineRecv::TimedOut => break AttemptOutcome::TimedOut,
                DeadlineRecv::Disconnected => {
                    if scan_replies_complete(&replies, expect_partitions) {
                        break AttemptOutcome::Complete;
                    }
                    break AttemptOutcome::Incomplete;
                }
            }
        };
        match outcome {
            AttemptOutcome::Complete => return Ok(replies),
            AttemptOutcome::TimedOut => stats.timeouts += 1,
            AttemptOutcome::Incomplete => stats.incomplete += 1,
        }
        backoff.wait();
    }
    stats.exhausted += 1;
    Err(DbError::Timeout("remote scan retries exhausted"))
}

enum AttemptOutcome {
    Complete,
    TimedOut,
    Incomplete,
}

/// Cap on the dense-domain join bitmap, in bits (2 MiB of bitmap). TPC-C
/// key domains are tiny rectangles; anything past this cap falls back to
/// the hash join.
const KEY_BITMAP_MAX_BITS: u128 = 1 << 24;

/// Dense membership set over `(w, d, id)` join keys.
///
/// When the build side's key columns span a small rectangular domain
/// (always true for TPC-C warehouse/district/id keys), membership is one
/// bounds check plus one bit test in an L1/L2-resident bitmap instead of
/// a hash probe. This is the join-strategy upgrade the columnar rewrite
/// makes nearly free: the per-column min/max needed to pick the strategy
/// is one pass over packed `i64` slices, which the row path would have to
/// pay per-`Value` per-row.
struct KeyBitmap {
    w_min: i64,
    d_min: i64,
    id_min: i64,
    w_span: u64,
    d_span: u64,
    id_span: u64,
    bits: Vec<u64>,
}

impl KeyBitmap {
    /// Builds an empty set for the given per-column `[min, max]` ranges.
    /// `None` input (empty build side) yields a zero-size domain where
    /// every probe misses; a domain larger than [`KEY_BITMAP_MAX_BITS`]
    /// returns `None` and the caller falls back to the hash join.
    fn try_new(ranges: Option<[(i64, i64); 3]>) -> Option<KeyBitmap> {
        let Some([(w_min, w_max), (d_min, d_max), (id_min, id_max)]) = ranges else {
            return Some(KeyBitmap {
                w_min: 0,
                d_min: 0,
                id_min: 0,
                w_span: 0,
                d_span: 0,
                id_span: 0,
                bits: Vec::new(),
            });
        };
        let spans = [
            (w_max as i128 - w_min as i128 + 1) as u128,
            (d_max as i128 - d_min as i128 + 1) as u128,
            (id_max as i128 - id_min as i128 + 1) as u128,
        ];
        let total = spans[0].checked_mul(spans[1])?.checked_mul(spans[2])?;
        if total > KEY_BITMAP_MAX_BITS {
            return None;
        }
        Some(KeyBitmap {
            w_min,
            d_min,
            id_min,
            w_span: spans[0] as u64,
            d_span: spans[1] as u64,
            id_span: spans[2] as u64,
            bits: vec![0u64; (total as usize).div_ceil(64)],
        })
    }

    /// Bit index of a key, `None` when it lies outside the domain (then
    /// it cannot be a member). Wrapping subtraction is sound: any true
    /// distance that overflows `i64` lands at `>= 2^63` as `u64`, far
    /// beyond the capped spans.
    #[inline]
    fn index(&self, w: i64, d: i64, id: i64) -> Option<usize> {
        let w = w.wrapping_sub(self.w_min) as u64;
        let d = d.wrapping_sub(self.d_min) as u64;
        let id = id.wrapping_sub(self.id_min) as u64;
        if w >= self.w_span || d >= self.d_span || id >= self.id_span {
            return None;
        }
        Some(((w * self.d_span + d) * self.id_span + id) as usize)
    }

    /// Marks a key as member. Build keys are always inside the domain
    /// (it was derived from them).
    #[inline]
    fn insert(&mut self, w: i64, d: i64, id: i64) {
        let i = self
            .index(w, d, id)
            .expect("build key inside its own domain");
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    #[inline]
    fn contains(&self, w: i64, d: i64, id: i64) -> bool {
        self.index(w, d, id)
            .is_some_and(|i| self.bits[i / 64] & (1 << (i % 64)) != 0)
    }
}

/// Per-column `[min, max]` over the `(w, d, id)` key columns of a batch
/// list; `None` when there are no rows.
fn key_ranges(batches: &[ColumnBatch]) -> Option<[(i64, i64); 3]> {
    let mut out: Option<[(i64, i64); 3]> = None;
    for b in batches {
        let Some((w, d, id)) = key_columns(b) else {
            continue;
        };
        for (i, col) in [w, d, id].into_iter().enumerate() {
            for &v in col {
                let r = out.get_or_insert([(v, v); 3]);
                r[i].0 = r[i].0.min(v);
                r[i].1 = r[i].1.max(v);
            }
        }
    }
    out
}

/// The dense-domain arm of the local columnar join: build two key
/// bitmaps, probe the orders key columns. `None` when either build
/// domain exceeds the bitmap cap (caller falls back to [`join_hash`]).
fn join_bitmap(cust: &[ColumnBatch], no: &[ColumnBatch], ord: &[ColumnBatch]) -> Option<usize> {
    let mut cust_bits = KeyBitmap::try_new(key_ranges(cust))?;
    let mut open_bits = KeyBitmap::try_new(key_ranges(no))?;
    for b in cust {
        let Some((w, d, id)) = key_columns(b) else {
            continue;
        };
        for ((&w, &d), &id) in w.iter().zip(d).zip(id) {
            cust_bits.insert(w, d, id);
        }
    }
    for b in no {
        let Some((w, d, id)) = key_columns(b) else {
            continue;
        };
        for ((&w, &d), &id) in w.iter().zip(d).zip(id) {
            open_bits.insert(w, d, id);
        }
    }
    let mut rows = 0usize;
    for b in ord {
        let Some((w, d, id)) = key_columns(b) else {
            debug_assert!(b.is_empty(), "orders key batch violated the protocol");
            continue;
        };
        let Some(c) = int_column(b, 3) else {
            debug_assert!(false, "orders key batch missing o_c_id");
            continue;
        };
        for (((&w, &d), &id), &c) in w.iter().zip(d).zip(id).zip(c) {
            if cust_bits.contains(w, d, c) && open_bits.contains(w, d, id) {
                rows += 1;
            }
        }
    }
    Some(rows)
}

/// Hash-join fallback over `(w, d, id)` tuple keys — exact for any key
/// distribution; used when the dense domains are too large to bitmap.
fn join_hash(cust: &[ColumnBatch], no: &[ColumnBatch], ord: &[ColumnBatch]) -> usize {
    let mut cust_keys: FxHashSet<JoinKey> = FxHashSet::default();
    for b in cust {
        let Some((w, d, id)) = key_columns(b) else {
            continue;
        };
        cust_keys.extend(w.iter().zip(d).zip(id).map(|((&w, &d), &id)| (w, d, id)));
    }
    let mut open_keys: FxHashSet<JoinKey> = FxHashSet::default();
    for b in no {
        let Some((w, d, id)) = key_columns(b) else {
            continue;
        };
        open_keys.extend(w.iter().zip(d).zip(id).map(|((&w, &d), &id)| (w, d, id)));
    }
    let mut rows = 0usize;
    for b in ord {
        let Some((w, d, id)) = key_columns(b) else {
            debug_assert!(b.is_empty(), "orders key batch violated the protocol");
            continue;
        };
        let Some(c) = int_column(b, 3) else {
            debug_assert!(false, "orders key batch missing o_c_id");
            continue;
        };
        for (((&w, &d), &id), &c) in w.iter().zip(d).zip(id).zip(c) {
            if cust_keys.contains(&(w, d, c)) && open_keys.contains(&(w, d, id)) {
                rows += 1;
            }
        }
    }
    rows
}

/// Materializes the key projection of every partition of `table` through
/// the **shared** snapshot-consistent columnar scan (filter pushed to the
/// scan), one batch per partition. Cached scans are revalidated against
/// **column-level** epochs: a partition is served zero-copy unless a
/// write actually changed one of the projected or filtered columns (or
/// appended a row) since its last materialization — OLTP writes to
/// unrelated columns (payments rewriting balances) leave the Q3 caches
/// untouched. Re-materialization copies from the partition's per-column
/// storage mirror, not the tuple heap.
fn snapshot_key_batches(
    table: &Table,
    proj: &[usize],
    pred: Option<&ColPredicate>,
) -> Vec<ColumnBatch> {
    let mut out = Vec::with_capacity(table.partition_count() as usize);
    for p in 0..table.partition_count() {
        if let Ok((batch, _snap)) = table.scan_columns_snapshot_shared(PartitionId(p), proj, pred) {
            out.push(batch);
        }
    }
    out
}

/// Fully local Q3 (one AC acting as the whole pipeline), columnar: the
/// execution behind `Event::QueryQ3` on HTAP OLAP workers.
///
/// Each table's join-key projection is materialized per partition via
/// [`anydb_storage::Table::scan_columns_snapshot_shared`] — a
/// consistent-prefix pass over the partition's per-column storage mirror
/// with the spec's filters pushed to the scan, cached per partition and
/// revalidated against **column-level** write epochs, so repeated
/// queries ride one shared scan (SharedDB-style) at zero copy cost as
/// long as no OLTP write touches the projected ∪ filtered columns. The
/// two joins then run over
/// packed key slices: bitmap membership when the key domains are dense
/// (the TPC-C case), hash sets otherwise. [`exec_q3_local_rows`] keeps
/// the row-at-a-time execution as the baseline arm of `abl_htap`, and
/// `reference_q3` remains the row-level oracle both are tested against.
pub fn exec_q3_local(db: &TpccDb, spec: &Q3Spec) -> usize {
    let cust = snapshot_key_batches(
        &db.customer,
        &Q3Spec::CUSTOMER_KEY_PROJ,
        Some(&spec.customer_pred()),
    );
    let no = snapshot_key_batches(&db.neworder, &Q3Spec::NEWORDER_KEY_PROJ, None);
    let ord = snapshot_key_batches(
        &db.orders,
        &Q3Spec::ORDER_KEY_PROJ,
        Some(&spec.order_pred()),
    );
    join_bitmap(&cust, &no, &ord).unwrap_or_else(|| join_hash(&cust, &no, &ord))
}

/// A shared join build side: dense key bitmap when the domains allow
/// (the TPC-C case), hash set otherwise — the same strategy split as
/// [`join_bitmap`] / [`join_hash`], packaged so the shared pipeline can
/// build it **once** and probe it for every member query.
enum KeySet {
    Dense(KeyBitmap),
    Hash(FxHashSet<JoinKey>),
}

impl KeySet {
    /// Empty set over the given per-column key ranges: dense bitmap when
    /// the domain fits [`KEY_BITMAP_MAX_BITS`], hash set otherwise.
    /// Inserted keys must lie inside `ranges` (dense indexing relies on
    /// it), which holds for any key drawn from the batches the ranges
    /// were computed over.
    fn empty_for(ranges: Option<[(i64, i64); 3]>) -> KeySet {
        match KeyBitmap::try_new(ranges) {
            Some(bits) => KeySet::Dense(bits),
            None => KeySet::Hash(FxHashSet::default()),
        }
    }

    fn from_batches(batches: &[ColumnBatch]) -> KeySet {
        let mut set = KeySet::empty_for(key_ranges(batches));
        for b in batches {
            let Some((w, d, id)) = key_columns(b) else {
                continue;
            };
            for ((&w, &d), &id) in w.iter().zip(d).zip(id) {
                set.insert(w, d, id);
            }
        }
        set
    }

    #[inline]
    fn insert(&mut self, w: i64, d: i64, id: i64) {
        match self {
            KeySet::Dense(b) => b.insert(w, d, id),
            KeySet::Hash(h) => {
                h.insert((w, d, id));
            }
        }
    }

    #[inline]
    fn contains(&self, w: i64, d: i64, id: i64) -> bool {
        match self {
            KeySet::Dense(b) => b.contains(w, d, id),
            KeySet::Hash(h) => h.contains(&(w, d, id)),
        }
    }
}

/// **Shared multi-query execution** (SharedDB's "one stone"): answers
/// every spec in `specs` from ONE scan→build→probe pipeline, returning
/// one Q3 count per spec, each provably equal to what
/// [`exec_q3_local`] would return for that spec alone.
///
/// The sharing plan, per the tentpole:
///
/// 1. **Predicate hulls** — per scanned table, the member predicates
///    fold into one [`ColPredicate::union_hull`] (e.g. N date windows →
///    one spanning window). The hull matches every row any member
///    matches, so one hull scan feeds all members.
/// 2. **One shared scan per table** — via the superset-keyed
///    [`anydb_storage::Table::scan_columns_snapshot_shared`], under the
///    *shared* projections ([`Q3Spec::CUSTOMER_SHARED_PROJ`] /
///    [`Q3Spec::ORDER_SHARED_PROJ`]) that carry the filter columns, so
///    exact member predicates can be re-checked downstream. This widens
///    the wire by one column in exchange for replacing N scans with 1.
/// 3. **One shared build side** — the open-order key set has no
///    per-member predicate, so one `KeySet` (dense bitmap or hash)
///    serves every member's join-2 probe.
/// 4. **Selection-vector fan-out at the probe** — each member refines
///    the hull-scanned batches with its exact predicate via the
///    branchless [`ColPredicate::select_bitmap`] evaluator, and probes
///    only its own selected rows.
///
/// Total pipeline cost is therefore ~flat in the member count: the
/// scans and the build are paid once, and only the refinement bitmaps
/// and probes scale with N — the `abl_shared` ablation gates this.
///
/// A single-member group degrades to [`exec_q3_local`] exactly (same
/// key projections, same cache shapes), so the standing-HTAP singleton
/// path is byte-identical to the unshared one.
pub fn exec_q3_shared(db: &TpccDb, specs: &[Q3Spec]) -> Vec<usize> {
    if specs.is_empty() {
        return Vec::new();
    }
    if specs.len() == 1 {
        return vec![exec_q3_local(db, &specs[0])];
    }
    let cust_hull = specs[1..].iter().fold(specs[0].customer_pred(), |h, s| {
        h.union_hull(&s.customer_pred())
    });
    let ord_hull = specs[1..]
        .iter()
        .fold(specs[0].order_pred(), |h, s| h.union_hull(&s.order_pred()));
    let cust = snapshot_key_batches(
        &db.customer,
        &Q3Spec::CUSTOMER_SHARED_PROJ,
        Some(&cust_hull),
    );
    let no = snapshot_key_batches(&db.neworder, &Q3Spec::NEWORDER_KEY_PROJ, None);
    let ord = snapshot_key_batches(&db.orders, &Q3Spec::ORDER_SHARED_PROJ, Some(&ord_hull));

    // One shared build side for join 2 — predicate-free, member-agnostic.
    let open = KeySet::from_batches(&no);

    // Member predicates, re-addressed to the shared projections' column
    // order (the filter columns ride at the tail by construction).
    let cust_preds: Vec<ColPredicate> = specs
        .iter()
        .map(|s| {
            s.customer_pred()
                .project_columns(&Q3Spec::CUSTOMER_SHARED_PROJ)
                .expect("shared customer projection carries the filter column")
        })
        .collect();
    let ord_preds: Vec<ColPredicate> = specs
        .iter()
        .map(|s| {
            s.order_pred()
                .project_columns(&Q3Spec::ORDER_SHARED_PROJ)
                .expect("shared orders projection carries the filter column")
        })
        .collect();

    // Members with *identical* predicates collapse into one group before
    // any fan-out (PR 6's noted headroom: N identical windows used to
    // pay N selection-vector passes and N key-set builds for the same
    // answer). `ColPredicate` is `Eq + Hash`, so grouping is one map
    // pass per side.
    let (cust_group_of, cust_group_preds) = dedup_predicates(&cust_preds);
    let (ord_group_of, ord_group_preds) = dedup_predicates(&ord_preds);

    // Join-1 build fan-out: each *distinct* customer predicate's exact
    // key set, refined from the hull-scanned batches by bitmap select.
    // The sets share the hull batches' key ranges, so in the dense
    // (TPC-C) case each is a small bitmap — probe membership stays a bit
    // test even at large member counts.
    let cust_ranges = key_ranges(&cust);
    let mut cust_keys: Vec<KeySet> = cust_group_preds
        .iter()
        .map(|_| KeySet::empty_for(cust_ranges))
        .collect();
    let mut bits = Vec::new();
    let mut sel = Vec::new();
    for b in &cust {
        let Some((w, d, id)) = key_columns(b) else {
            debug_assert!(b.is_empty(), "customer batch violated the key protocol");
            continue;
        };
        for (member, &pred) in cust_keys.iter_mut().zip(&cust_group_preds) {
            pred.select_bitmap(b, &mut bits);
            sel.clear();
            bitmap_ones(&bits, &mut sel);
            for &i in &sel {
                let i = i as usize;
                member.insert(w[i], d[i], id[i]);
            }
        }
    }

    // Probe fan-out runs once per distinct `(order window, customer
    // set)` pair — members identical on both sides share the entire
    // probe, not just the selection pass. Pairs are bucketed under
    // their order group so each distinct order predicate pays exactly
    // one selection-vector pass per batch.
    let mut pair_of = vec![0usize; specs.len()];
    let mut pairs_by_ord_group: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ord_group_preds.len()];
    let mut npairs = 0usize;
    {
        let mut index: FxHashMap<(usize, usize), usize> = FxHashMap::default();
        for (m, (&og, &cg)) in ord_group_of.iter().zip(&cust_group_of).enumerate() {
            pair_of[m] = *index.entry((og, cg)).or_insert_with(|| {
                pairs_by_ord_group[og].push((npairs, cg));
                npairs += 1;
                npairs - 1
            });
        }
    }
    let mut pair_rows = vec![0usize; npairs];
    for b in &ord {
        let Some((w, d, id)) = key_columns(b) else {
            debug_assert!(b.is_empty(), "orders batch violated the key protocol");
            continue;
        };
        let Some(c) = int_column(b, 3) else {
            debug_assert!(false, "orders batch missing o_c_id");
            continue;
        };
        for (pred, pairs) in ord_group_preds.iter().zip(&pairs_by_ord_group) {
            pred.select_bitmap(b, &mut bits);
            sel.clear();
            bitmap_ones(&bits, &mut sel);
            for &(pair, cg) in pairs {
                let member = &cust_keys[cg];
                let count = &mut pair_rows[pair];
                for &i in &sel {
                    let i = i as usize;
                    if member.contains(w[i], d[i], c[i]) && open.contains(w[i], d[i], id[i]) {
                        *count += 1;
                    }
                }
            }
        }
    }
    pair_of.into_iter().map(|p| pair_rows[p]).collect()
}

/// Groups equal predicates: returns, per input position, the index of
/// its group, plus one representative reference per group (first
/// occurrence order). The fan-out loops of [`exec_q3_shared`] then run
/// per *group* instead of per member.
fn dedup_predicates(preds: &[ColPredicate]) -> (Vec<usize>, Vec<&ColPredicate>) {
    let mut group_of = Vec::with_capacity(preds.len());
    let mut reps: Vec<&ColPredicate> = Vec::new();
    let mut index: FxHashMap<&ColPredicate, usize> = FxHashMap::default();
    for pred in preds {
        group_of.push(*index.entry(pred).or_insert_with(|| {
            reps.push(pred);
            reps.len() - 1
        }));
    }
    (group_of, reps)
}

/// Row-at-a-time local Q3 under per-row latches — the pre-columnar HTAP
/// execution, kept as the row-path baseline (`abl_htap`'s slow arm) and
/// as an independent oracle for the columnar rewrite.
pub fn exec_q3_local_rows(db: &TpccDb, spec: &Q3Spec) -> usize {
    let mut cust_keys: FxHashSet<(i64, i64, i64)> = FxHashSet::default();
    for p in 0..db.customer.partition_count() {
        if let Ok(part) = db.customer.partition(PartitionId(p)) {
            part.scan(|_, row| {
                if spec.customer_filter(row.tuple()) {
                    cust_keys.insert(Q3Spec::customer_join_key(row.tuple()));
                }
            });
        }
    }
    let mut open_keys: FxHashSet<(i64, i64, i64)> = FxHashSet::default();
    for p in 0..db.neworder.partition_count() {
        if let Ok(part) = db.neworder.partition(PartitionId(p)) {
            part.scan(|_, row| {
                open_keys.insert(Q3Spec::neworder_key(row.tuple()));
            });
        }
    }
    let mut rows = 0usize;
    for p in 0..db.orders.partition_count() {
        if let Ok(part) = db.orders.partition(PartitionId(p)) {
            part.scan(|_, row| {
                let t = row.tuple();
                if spec.order_filter(t)
                    && cust_keys.contains(&Q3Spec::order_customer_key(t))
                    && open_keys.contains(&Q3Spec::order_key(t))
                {
                    rows += 1;
                }
            });
        }
    }
    rows
}

/// Collects all tuples of a table (test/diagnostic helper).
pub fn collect_table(table: &Table) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(table.row_count());
    for p in 0..table.partition_count() {
        if let Ok(part) = table.partition(PartitionId(p)) {
            part.scan(|_, row| out.push(row.tuple().clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_stream::fault::FaultSpec;
    use anydb_stream::flow::Flow;
    use anydb_stream::link::{LinkSpec, SimLink};
    use anydb_stream::remote::{scan_connection, scan_connection_faulty};
    use anydb_workload::chbench::reference_q3;
    use anydb_workload::tpcc::TpccConfig;

    #[test]
    fn local_matches_reference() {
        let db = TpccDb::load(TpccConfig::small(), 51).unwrap();
        let spec = Q3Spec::default();
        let expected = reference_q3(
            &spec,
            &collect_table(&db.customer),
            &collect_table(&db.orders),
            &collect_table(&db.neworder),
        );
        assert_eq!(exec_q3_local(&db, &spec), expected, "columnar local path");
        assert_eq!(exec_q3_local_rows(&db, &spec), expected, "row local path");
    }

    #[test]
    fn windowed_spec_agrees_across_all_paths() {
        // A bounded date window pushes down as IntBetween; the columnar
        // local execution, the row execution, the reference oracle, and
        // the streamed columnar pipeline must all agree on it.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 59).unwrap());
        let spec = Q3Spec {
            entry_date_max: 20091231,
            ..Q3Spec::default()
        };
        let expected = reference_q3(
            &spec,
            &collect_table(&db.customer),
            &collect_table(&db.orders),
            &collect_table(&db.neworder),
        );
        assert!(expected > 0, "window keeps some orders at this seed");
        assert_eq!(exec_q3_local(&db, &spec), expected);
        assert_eq!(exec_q3_local_rows(&db, &spec), expected);
        let (crx, nrx, orx, producers) = columnar_streams(&db, spec, 128);
        let streamed = Q3Compute::new(spec).run_columns(crx, nrx, orx);
        producers.join().unwrap();
        assert_eq!(streamed.rows, expected);
    }

    #[test]
    fn shared_execution_matches_independent_execution() {
        let db = TpccDb::load(TpccConfig::small(), 61).unwrap();
        // Mixed member shapes: different state prefixes, bounded and
        // open-ended date windows, and a duplicate member.
        let specs = vec![
            Q3Spec::default(),
            Q3Spec {
                entry_date_max: 20091231,
                ..Q3Spec::default()
            },
            Q3Spec {
                state_prefix: 'C',
                entry_date_min: 20050101,
                entry_date_max: 20081231,
            },
            Q3Spec {
                state_prefix: 'T',
                ..Q3Spec::default()
            },
            Q3Spec {
                entry_date_max: 20091231,
                ..Q3Spec::default()
            },
        ];
        let shared = exec_q3_shared(&db, &specs);
        assert_eq!(shared.len(), specs.len());
        let customers = collect_table(&db.customer);
        let orders = collect_table(&db.orders);
        let neworders = collect_table(&db.neworder);
        for (spec, &rows) in specs.iter().zip(&shared) {
            assert_eq!(
                rows,
                reference_q3(spec, &customers, &orders, &neworders),
                "shared member diverged from the oracle: {spec:?}"
            );
            assert_eq!(
                rows,
                exec_q3_local(&db, spec),
                "shared member diverged from independent execution: {spec:?}"
            );
        }
        assert!(shared.iter().any(|&r| r > 0), "degenerate scale");
        assert_eq!(shared[1], shared[4], "duplicate members must agree");
        // Degenerate groups: empty, and the singleton passthrough.
        assert!(exec_q3_shared(&db, &[]).is_empty());
        assert_eq!(exec_q3_shared(&db, &specs[..1]), vec![shared[0]]);
    }

    #[test]
    fn shared_pipeline_scans_each_table_once() {
        let db = TpccDb::load(TpccConfig::small(), 62).unwrap();
        let misses = |db: &TpccDb| {
            [&db.customer, &db.neworder, &db.orders]
                .iter()
                .map(|t| t.shared_scan_stats().misses)
                .sum::<u64>()
        };
        let specs: Vec<Q3Spec> = (0..8i64)
            .map(|i| Q3Spec {
                entry_date_max: 20071231 + i * 10_000,
                ..Q3Spec::default()
            })
            .collect();
        let parts = (db.customer.partition_count()
            + db.neworder.partition_count()
            + db.orders.partition_count()) as u64;
        let before = misses(&db);
        exec_q3_shared(&db, &specs);
        // 8 member queries cost ONE scan per table partition.
        assert_eq!(misses(&db) - before, parts);
        // A second group whose windows sit inside the first group's hull
        // is answered without any fresh scan at all: the customer and
        // new-order shapes hit exactly, the narrower orders hull is
        // served from the cached superset entry by refinement.
        let after_first = misses(&db);
        let narrower: Vec<Q3Spec> = (0..4i64)
            .map(|i| Q3Spec {
                entry_date_max: 20071231 + i * 10_000,
                ..Q3Spec::default()
            })
            .collect();
        let shared = exec_q3_shared(&db, &narrower);
        assert_eq!(misses(&db), after_first, "covered group paid a scan");
        // And the refined results are still exact.
        let customers = collect_table(&db.customer);
        let orders = collect_table(&db.orders);
        let neworders = collect_table(&db.neworder);
        for (spec, &rows) in narrower.iter().zip(&shared) {
            assert_eq!(rows, reference_q3(spec, &customers, &orders, &neworders));
        }
    }

    #[test]
    fn join_arms_agree_and_sparse_domains_fall_back() {
        use anydb_common::{DataType, Value};
        let int3 = [DataType::Int, DataType::Int, DataType::Int];
        let int4 = [DataType::Int; 4];
        // (w, d, id) build batches; orders carry (w, d, id, c).
        let mut cust = ColumnBatch::new(&int3);
        let mut no = ColumnBatch::new(&int3);
        let mut ord = ColumnBatch::new(&int4);
        for (w, d, id) in [(1i64, 1i64, 10i64), (1, 2, 20), (2, 1, 10)] {
            cust.push_row(&[Value::Int(w), Value::Int(d), Value::Int(id)])
                .unwrap();
        }
        for (w, d, o) in [(1i64, 1i64, 5i64), (1, 2, 6), (2, 1, 7)] {
            no.push_row(&[Value::Int(w), Value::Int(d), Value::Int(o)])
                .unwrap();
        }
        for (w, d, o, c) in [
            (1i64, 1i64, 5i64, 10i64), // matches both sides
            (1, 2, 6, 99),             // customer miss
            (2, 1, 9, 10),             // open-order miss
            (9, 9, 9, 9),              // outside every domain
        ] {
            ord.push_row(&[Value::Int(w), Value::Int(d), Value::Int(o), Value::Int(c)])
                .unwrap();
        }
        let (cust, no, ord) = (vec![cust], vec![no], vec![ord]);
        assert_eq!(join_bitmap(&cust, &no, &ord), Some(1));
        assert_eq!(join_hash(&cust, &no, &ord), 1);

        // A sparse key domain overflows the bitmap cap: the dense arm
        // refuses and the hash arm still answers.
        let mut sparse = ColumnBatch::new(&int3);
        for id in [0i64, 1 << 40] {
            sparse
                .push_row(&[Value::Int(1), Value::Int(1), Value::Int(id)])
                .unwrap();
        }
        let sparse = vec![sparse];
        assert_eq!(join_bitmap(&sparse, &no, &ord), None);
        assert_eq!(join_hash(&sparse, &no, &ord), 0);

        // Empty build sides: every probe misses, in both arms.
        let empty = vec![ColumnBatch::new(&int3)];
        assert_eq!(join_bitmap(&empty, &no, &ord), Some(0));
        assert_eq!(join_hash(&empty, &no, &ord), 0);
    }

    #[test]
    fn streamed_matches_local() {
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 52).unwrap());
        let spec = Q3Spec::default();
        let expected = exec_q3_local(&db, &spec);

        let (ctx, crx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (ntx, nrx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (otx, orx) = SimLink::channel(LinkSpec::instant(), 1 << 14);

        let producers = {
            let db = db.clone();
            std::thread::spawn(move || {
                stream_scan(&db.customer, FlowSender::new(ctx, Flow::identity()), 256);
                stream_scan(&db.neworder, FlowSender::new(ntx, Flow::identity()), 256);
                stream_scan(&db.orders, FlowSender::new(otx, Flow::identity()), 256);
            })
        };
        let result = Q3Compute::new(spec).run(crx, nrx, orx);
        producers.join().unwrap();
        assert_eq!(result.rows, expected);
        assert!(result.build > Duration::ZERO);
        assert!(result.stream_bytes.iter().all(|&b| b > 0));
    }

    /// Spawns the three columnar Q3 producers (key projections, filters
    /// pushed down) over instant links and returns the receivers.
    fn columnar_streams(
        db: &std::sync::Arc<TpccDb>,
        spec: Q3Spec,
        batch_rows: usize,
    ) -> (
        LinkReceiver<ColumnBatch>,
        LinkReceiver<ColumnBatch>,
        LinkReceiver<ColumnBatch>,
        std::thread::JoinHandle<()>,
    ) {
        let (ctx, crx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (ntx, nrx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (otx, orx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let db = db.clone();
        let producers = std::thread::spawn(move || {
            stream_scan_columns(
                &db.customer,
                ColFlowSender::new(ctx, Flow::identity()),
                batch_rows,
                &Q3Spec::CUSTOMER_KEY_PROJ,
                Some(&spec.customer_pred()),
            );
            stream_scan_columns(
                &db.neworder,
                ColFlowSender::new(ntx, Flow::identity()),
                batch_rows,
                &Q3Spec::NEWORDER_KEY_PROJ,
                None,
            );
            stream_scan_columns(
                &db.orders,
                ColFlowSender::new(otx, Flow::identity()),
                batch_rows,
                &Q3Spec::ORDER_KEY_PROJ,
                Some(&spec.order_pred()),
            );
        });
        (crx, nrx, orx, producers)
    }

    #[test]
    fn columnar_streams_match_local() {
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 56).unwrap());
        let spec = Q3Spec::default();
        let expected = exec_q3_local(&db, &spec);
        let (crx, nrx, orx, producers) = columnar_streams(&db, spec, 256);
        let result = Q3Compute::new(spec).run_columns(crx, nrx, orx);
        producers.join().unwrap();
        assert_eq!(result.rows, expected);
        assert!(result.stream_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn columnar_wire_bytes_beat_row_wire_bytes_per_stream() {
        // Same database, both paths as beaming runs them (row path
        // pre-filters via flows, columnar pushes down filter+projection):
        // every stream must model fewer wire bytes columnar.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 57).unwrap());
        let spec = Q3Spec::default();

        let (ctx, crx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (ntx, nrx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (otx, orx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        stream_scan(
            &db.customer,
            FlowSender::new(
                ctx,
                Flow::identity().filter(move |t| spec.customer_filter(t)),
            ),
            256,
        );
        stream_scan(&db.neworder, FlowSender::new(ntx, Flow::identity()), 256);
        stream_scan(
            &db.orders,
            FlowSender::new(otx, Flow::identity().filter(move |t| spec.order_filter(t))),
            256,
        );
        let row = Q3Compute::new(spec).run(crx, nrx, orx);

        let (crx, nrx, orx, producers) = columnar_streams(&db, spec, 256);
        let col = Q3Compute::new(spec).run_columns(crx, nrx, orx);
        producers.join().unwrap();

        assert_eq!(row.rows, col.rows);
        for i in 0..3 {
            assert!(
                col.stream_bytes[i] < row.stream_bytes[i],
                "stream {i}: columnar {} !< row {}",
                col.stream_bytes[i],
                row.stream_bytes[i]
            );
        }
    }

    #[test]
    fn prefiltered_streams_give_same_answer() {
        // Producer-side filtering (what a DPI flow does) must not change
        // the result because compute-side filters are idempotent.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 53).unwrap());
        let spec = Q3Spec::default();
        let expected = exec_q3_local(&db, &spec);

        let (ctx, crx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (ntx, nrx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (otx, orx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let producers = {
            let db = db.clone();
            std::thread::spawn(move || {
                stream_scan(
                    &db.customer,
                    FlowSender::new(
                        ctx,
                        Flow::identity().filter(move |t| spec.customer_filter(t)),
                    ),
                    256,
                );
                stream_scan(&db.neworder, FlowSender::new(ntx, Flow::identity()), 256);
                stream_scan(
                    &db.orders,
                    FlowSender::new(otx, Flow::identity().filter(move |t| spec.order_filter(t))),
                    256,
                );
            })
        };
        let result = Q3Compute::new(spec).run(crx, nrx, orx);
        producers.join().unwrap();
        assert_eq!(result.rows, expected);
    }

    #[test]
    fn early_order_arrivals_are_staged_and_probed() {
        // All three streams are fully delivered before the consumer
        // starts, so the first round-robin pass sees order batches while
        // both builds are still open: they must be filtered, staged, and
        // probed when the builds close — same answer as the oracle.
        let db = TpccDb::load(TpccConfig::small(), 55).unwrap();
        let spec = Q3Spec::default();
        let expected = exec_q3_local(&db, &spec);

        let (ctx, crx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (ntx, nrx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        let (otx, orx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
        stream_scan(&db.orders, FlowSender::new(otx, Flow::identity()), 256);
        stream_scan(&db.customer, FlowSender::new(ctx, Flow::identity()), 256);
        stream_scan(&db.neworder, FlowSender::new(ntx, Flow::identity()), 256);

        let result = Q3Compute::new(spec).run(crx, nrx, orx);
        assert_eq!(result.rows, expected);
    }

    #[test]
    fn early_columnar_order_arrivals_are_staged_and_probed() {
        // Columnar mirror of the staging test: orders fully delivered
        // before the consumer starts.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 58).unwrap());
        let spec = Q3Spec::default();
        let expected = exec_q3_local(&db, &spec);
        let (crx, nrx, orx, producers) = columnar_streams(&db, spec, 256);
        producers.join().unwrap(); // everything buffered before consumption
        let result = Q3Compute::new(spec).run_columns(crx, nrx, orx);
        assert_eq!(result.rows, expected);
    }

    #[test]
    fn collect_table_sees_all_rows() {
        let db = TpccDb::load(TpccConfig::small(), 54).unwrap();
        assert_eq!(collect_table(&db.warehouse).len(), db.warehouse.row_count());
    }

    /// Opens a scan connection over an instant link, spawns the serve
    /// loop for `table`, ships one pushed-down request (the same shape
    /// the beaming layer's remote producer sends), and returns the reply
    /// stream plus the server handle.
    fn remote_stream(
        db: &std::sync::Arc<TpccDb>,
        table: fn(&TpccDb) -> &Table,
        proj: &'static [usize],
        pred: Option<ColPredicate>,
    ) -> (LinkReceiver<Bytes>, std::thread::JoinHandle<usize>) {
        let (requester, responder) = scan_connection(LinkSpec::instant(), 1 << 14);
        let db = db.clone();
        let server = std::thread::spawn(move || serve_scan_stream(table(&db), responder));
        let req = ScanRequest {
            partition: None,
            proj: proj.to_vec(),
            pred,
            batch_rows: 128,
            shared: false,
        };
        let (rx, request_bytes) = request_remote_scan(requester, &req, &Flow::identity());
        assert!(request_bytes > 0, "the cost of asking must be charged");
        (rx, server)
    }

    #[test]
    fn remote_wire_q3_matches_local() {
        // The full remote protocol — encode request, serve at the
        // storage side, decode replies — agrees with local execution.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 63).unwrap());
        let spec = Q3Spec::default();
        let expected = exec_q3_local(&db, &spec);
        assert!(expected > 0, "degenerate scale");
        let (crx, ch) = remote_stream(
            &db,
            |db| &db.customer,
            &Q3Spec::CUSTOMER_KEY_PROJ,
            Some(spec.customer_pred()),
        );
        let (nrx, nh) = remote_stream(&db, |db| &db.neworder, &Q3Spec::NEWORDER_KEY_PROJ, None);
        let (orx, oh) = remote_stream(
            &db,
            |db| &db.orders,
            &Q3Spec::ORDER_KEY_PROJ,
            Some(spec.order_pred()),
        );
        let result = Q3Compute::new(spec).run_wire(crx, nrx, orx);
        assert_eq!(result.rows, expected);
        // Wire accounting is on encoded frames, so every stream paid.
        assert!(result.stream_bytes.iter().all(|&b| b > 0));
        // The serve side reports full pre-filter scan work.
        let scanned: usize = [ch, nh, oh].into_iter().map(|h| h.join().unwrap()).sum();
        let total = db.customer.row_count() + db.neworder.row_count() + db.orders.row_count();
        assert_eq!(scanned, total);
    }

    #[test]
    fn serve_scan_stream_applies_en_route_flows() {
        // A Project stage in the request's flow spec runs at the storage
        // side: replies come back already narrowed.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 64).unwrap());
        let (requester, responder) = scan_connection(LinkSpec::instant(), 1 << 12);
        let server = {
            let db = db.clone();
            std::thread::spawn(move || serve_scan_stream(&db.orders, responder))
        };
        let req = ScanRequest {
            partition: None,
            proj: Q3Spec::ORDER_KEY_PROJ.to_vec(),
            pred: None,
            batch_rows: 0,
            shared: false,
        };
        // Keep only the last key column, en route.
        let flow = Flow::identity().project(vec![3]);
        let (mut rx, _) = request_remote_scan(requester, &req, &flow);
        let mut narrowed = Vec::new();
        while let Some(frame) = rx.recv_blocking() {
            let reply = ScanReply::decode(&frame).unwrap();
            assert_eq!(reply.batch.columns().len(), 1, "flow ran before encoding");
            narrowed.push(reply);
        }
        server.join().unwrap();
        // Same request served locally, projected after the fact, agrees
        // partition by partition.
        let (wide, _) = db.orders.serve_scan(&req).unwrap();
        assert_eq!(narrowed.len(), wide.len());
        for (got, want) in narrowed.iter().zip(&wide) {
            assert_eq!(got.partition, want.partition);
            assert_eq!(got.snapshot, want.snapshot);
            assert_eq!(got.batch, want.batch.project(&[3]));
        }
    }

    #[test]
    fn malformed_frames_get_error_replies_and_are_counted() {
        // A garbled request frame must not silently vanish: the serve
        // loop counts it and answers with an encoded ScanError so the
        // remote caller fails with a reason instead of hanging.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 66).unwrap());
        let (mut requester, responder) = scan_connection(LinkSpec::instant(), 1 << 10);
        let metrics = std::sync::Arc::new(ScanServeMetrics::new());
        let server = {
            let db = db.clone();
            let metrics = metrics.clone();
            std::thread::spawn(move || serve_scan_stream_metered(&db.orders, responder, &metrics))
        };
        requester
            .send_request(Bytes::copy_from_slice(b"\xff garbage frame"))
            .unwrap();
        let mut rx = requester.finish_requests();
        let frame = rx.recv_blocking().expect("an error reply, not silence");
        assert_eq!(frame.chunk().first(), Some(&MSG_SCAN_ERROR));
        let err = anydb_common::ScanError::decode(&frame).unwrap();
        assert!(
            err.reason.contains("undecodable scan request"),
            "unhelpful reason: {}",
            err.reason
        );
        assert!(rx.recv_blocking().is_none());
        assert_eq!(server.join().unwrap(), 0);
        assert_eq!(metrics.dropped_frames.get(), 1);
        assert_eq!(metrics.error_replies.get(), 1);
        assert_eq!(metrics.served.get(), 0);
    }

    #[test]
    fn out_of_bounds_flow_is_rejected_with_a_reason() {
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 67).unwrap());
        let (requester, responder) = scan_connection(LinkSpec::instant(), 1 << 10);
        let metrics = std::sync::Arc::new(ScanServeMetrics::new());
        let server = {
            let db = db.clone();
            let metrics = metrics.clone();
            std::thread::spawn(move || serve_scan_stream_metered(&db.orders, responder, &metrics))
        };
        let req = ScanRequest {
            partition: None,
            proj: Q3Spec::ORDER_KEY_PROJ.to_vec(),
            pred: None,
            batch_rows: 0,
            shared: false,
        };
        // Projection position 99 is out of bounds for a 4-column reply.
        let flow = Flow::identity().project(vec![99]);
        let got = request_scan_with_retry(
            || {
                let (requester, _) = scan_connection(LinkSpec::instant(), 4);
                requester
            },
            &req,
            &flow,
            None,
            RetryPolicy::single(Duration::from_secs(5)),
            &mut ScanRetryStats::default(),
        );
        // That retry call used a throwaway connection (storage side
        // dropped): it must fail cleanly, not hang.
        assert!(got.is_err());
        // Now the real connection: the server answers with ScanError.
        let (mut rx, _) = request_remote_scan(requester, &req, &flow);
        let frame = rx.recv_blocking().expect("an error reply");
        let err = anydb_common::ScanError::decode(&frame).unwrap();
        assert!(err.reason.contains("projection out of bounds"));
        drop(rx);
        server.join().unwrap();
        assert_eq!(metrics.dropped_frames.get(), 1);
    }

    #[test]
    fn retry_reissues_until_a_complete_certified_stream() {
        // Attempt 1 rides a link that drops every reply frame; the
        // certificate audit detects the hole and the request is
        // re-issued over a healthy connection.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 68).unwrap());
        let parts = db.orders.partition_count() as usize;
        let req = ScanRequest {
            partition: None,
            proj: Q3Spec::ORDER_KEY_PROJ.to_vec(),
            pred: None,
            batch_rows: 128,
            shared: false,
        };
        let attempt = std::cell::Cell::new(0usize);
        let connect = || {
            let lossy = attempt.get() == 0;
            attempt.set(attempt.get() + 1);
            let (requester, responder) = if lossy {
                scan_connection_faulty(
                    LinkSpec::instant(),
                    1 << 14,
                    FaultSpec::new(3).drop_prob(1.0),
                )
            } else {
                scan_connection(LinkSpec::instant(), 1 << 14)
            };
            let db = db.clone();
            std::thread::spawn(move || serve_scan_stream(&db.orders, responder));
            requester
        };
        let policy = RetryPolicy {
            attempts: 3,
            deadline: Duration::from_secs(10),
            jitter: Duration::from_millis(2),
            seed: 0xA11CE,
        };
        let mut stats = ScanRetryStats::default();
        let replies = request_scan_with_retry(
            connect,
            &req,
            &Flow::identity(),
            Some(parts),
            policy,
            &mut stats,
        )
        .expect("second attempt must complete");
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.incomplete, 1);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.exhausted, 0);
        // The retried answer is the full certified scan.
        let total: usize = replies.iter().map(|r| r.batch.rows()).sum();
        assert_eq!(total, db.orders.row_count());
    }

    #[test]
    fn retry_times_out_against_a_silent_server() {
        // The storage side receives requests but never answers (and
        // never hangs up): every attempt must expire on its deadline and
        // the call must surface a typed timeout, not block forever.
        let db = std::sync::Arc::new(TpccDb::load(TpccConfig::small(), 69).unwrap());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut servers = Vec::new();
        let conns = std::cell::RefCell::new(Vec::new());
        let connect = || {
            let (requester, mut responder) = scan_connection(LinkSpec::instant(), 1 << 10);
            let stop = stop.clone();
            conns.borrow_mut().push(std::thread::spawn(move || {
                let _got = responder.recv_request_blocking();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }));
            requester
        };
        let req = ScanRequest {
            partition: None,
            proj: Q3Spec::ORDER_KEY_PROJ.to_vec(),
            pred: None,
            batch_rows: 0,
            shared: false,
        };
        let policy = RetryPolicy {
            attempts: 2,
            deadline: Duration::from_millis(50),
            jitter: Duration::from_millis(2),
            seed: 7,
        };
        let mut stats = ScanRetryStats::default();
        let got =
            request_scan_with_retry(connect, &req, &Flow::identity(), None, policy, &mut stats);
        assert_eq!(got, Err(DbError::Timeout("remote scan retries exhausted")));
        // The stats out-parameter survives the error path — this is why
        // it is an out-parameter: the old return-tuple shape lost every
        // counter exactly when a scenario audit needed them most.
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.snapshot().retries_exhausted, 1);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        servers.append(&mut conns.borrow_mut());
        for s in servers {
            s.join().unwrap();
        }
        let _ = db; // table unused: nothing was ever served
    }

    #[test]
    fn retry_jitter_is_deterministic_per_seed_and_bounded() {
        let policy = |seed| RetryPolicy {
            attempts: 5,
            deadline: Duration::from_secs(1),
            jitter: Duration::from_millis(10),
            seed,
        };
        let a: Vec<_> = (1..5).map(|i| policy(1).jitter_before(i)).collect();
        let b: Vec<_> = (1..5).map(|i| policy(1).jitter_before(i)).collect();
        assert_eq!(a, b, "same seed, same jitter sequence");
        let c: Vec<_> = (1..5).map(|i| policy(2).jitter_before(i)).collect();
        assert_ne!(a, c, "different seeds must de-phase");
        for d in a {
            assert!(d < Duration::from_millis(10), "jitter {d:?} out of bound");
        }
        assert_eq!(
            RetryPolicy::single(Duration::from_secs(1)).jitter_before(3),
            Duration::ZERO
        );
    }

    #[test]
    fn shared_identical_members_collapse_to_one_fan_out() {
        // Duplicate members at every position: the dedup must map each
        // back to its group's single fan-out result, in member order.
        let db = TpccDb::load(TpccConfig::small(), 65).unwrap();
        let a = Q3Spec::default();
        let b = Q3Spec {
            entry_date_max: 20091231,
            ..Q3Spec::default()
        };
        let specs = vec![a, b, a, b, a, a];
        let shared = exec_q3_shared(&db, &specs);
        let ra = exec_q3_local(&db, &a);
        let rb = exec_q3_local(&db, &b);
        assert!(
            ra > 0 && rb > 0 && ra != rb,
            "seed keeps the specs distinct"
        );
        assert_eq!(shared, vec![ra, rb, ra, rb, ra, ra]);
    }
}
