//! Disaggregated Q3 over the scan wire protocol — the `olap_remote` loop.
//!
//! Per query the generator opens three scan connections (customer,
//! new-order, orders) over a modeled link, hands the responder ends to one
//! server thread that answers them with `serve_scan_stream` in that order,
//! ships the three pushed-down `ScanRequest`s with `request_remote_scan`
//! and joins the encoded reply frames with `Q3Compute::run_wire`. No
//! AnyComponent is on the path: what is timed is scan → encode → link →
//! decode → join.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anydb_common::{ScanReply, ScanRequest};
use anydb_core::olap::{request_remote_scan, serve_scan_stream, Q3Compute};
use anydb_storage::Table;
use anydb_stream::flow::Flow;
use anydb_stream::link::{LinkReceiver, LinkSpec, SimLink};
use anydb_stream::remote::{scan_connection, ScanResponder};
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::TpccDb;
use bytes::Bytes;
use crossbeam::channel::unbounded;

use crate::data::remote_q3_spec;
use crate::trace::Tracer;

/// The modeled compute↔storage link: 20 µs one way, 1 GB/s, with
/// NIC-offloaded flow stages.
pub const LINK: LinkSpec = LinkSpec {
    latency: Duration::from_micros(20),
    bytes_per_sec: 1e9,
    offload: true,
};

/// Ring slots per link direction.
pub const RING: usize = 4096;

/// Rows per reply frame (pipelining granularity).
pub const BATCH_ROWS: usize = 512;

/// Span-id base of the server thread's recorder.
const SERVER_SPAN_BASE: u32 = 1 << 30;

/// The three scans of Q3, in the order the server answers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Q3Table {
    /// Build side 1, `c_state` prefix pushed down.
    Customer,
    /// Build side 2, unfiltered.
    NewOrder,
    /// Probe side, entry-date window pushed down.
    Orders,
}

impl Q3Table {
    /// All three, in serving order.
    pub const ALL: [Q3Table; 3] = [Q3Table::Customer, Q3Table::NewOrder, Q3Table::Orders];

    /// The table behind this scan.
    pub fn table(self, db: &TpccDb) -> &Table {
        match self {
            Q3Table::Customer => &db.customer,
            Q3Table::NewOrder => &db.neworder,
            Q3Table::Orders => &db.orders,
        }
    }

    /// The pushed-down request `spec` sends for this scan.
    pub fn request(self, spec: &Q3Spec) -> ScanRequest {
        let (proj, pred) = match self {
            Q3Table::Customer => (&Q3Spec::CUSTOMER_KEY_PROJ[..], Some(spec.customer_pred())),
            Q3Table::NewOrder => (&Q3Spec::NEWORDER_KEY_PROJ[..], None),
            Q3Table::Orders => (&Q3Spec::ORDER_KEY_PROJ[..], Some(spec.order_pred())),
        };
        ScanRequest {
            partition: None,
            proj: proj.to_vec(),
            pred,
            batch_rows: BATCH_ROWS,
            // Every query pays its own scan: this workload measures the
            // wire path, not the scan cache (`htap_q3` covers that).
            shared: false,
        }
    }
}

/// The encoded reply frames `spec`'s three scans produce, served locally
/// (`Table::serve_scan` + `ScanReply::encode`): what a remote query puts
/// on its reply links, without the links.
pub fn encoded_replies(db: &TpccDb, spec: &Q3Spec) -> [Vec<Bytes>; 3] {
    Q3Table::ALL.map(|which| {
        let (replies, _) = which
            .table(db)
            .serve_scan(&which.request(spec))
            .expect("Q3 scan request is well-formed");
        replies.iter().map(ScanReply::encode).collect()
    })
}

/// Three closed reply streams over links with no delay, pre-loaded with
/// `frames`: the input of `Q3Compute::run_wire` with the wire taken out.
pub fn instant_streams(frames: &[Vec<Bytes>; 3]) -> [LinkReceiver<Bytes>; 3] {
    frames.each_ref().map(|frames| {
        let (mut tx, rx) = SimLink::channel::<Bytes>(LinkSpec::instant(), frames.len().max(1));
        for frame in frames {
            tx.send_blocking(frame.clone(), frame.len())
                .expect("receiver alive");
        }
        rx
    })
}

/// What one `olap_remote` repetition observed. Index 0 is the selective
/// query shape, 1 the open-ended one (see [`remote_q3_spec`]).
#[derive(Debug, Default)]
pub struct RemoteOutcome {
    /// Wall-clock seconds for all queries.
    pub elapsed_s: f64,
    /// Queries issued.
    pub queries: u64,
    /// Queries whose row count disagreed with `expected`.
    pub wrong: u64,
    /// Latency of every query per shape, µs.
    pub lat_us: [Vec<f64>; 2],
    /// Request + reply bytes of one query per shape (0 until seen).
    pub wire_bytes: [u64; 2],
    /// True if two queries of one shape ever differed in wire bytes.
    pub wire_bytes_varied: bool,
    /// Time between a query's completion and the next query's first
    /// call into the program, µs: the generator's own think time.
    pub think_us: Vec<f64>,
}

/// Issues sequential remote Q3 queries, alternating the two shapes, until
/// `duration` has passed (always an even number, at least two). `expected`
/// is the correct row count per shape.
pub fn run_remote(
    db: &Arc<TpccDb>,
    expected: [usize; 2],
    duration: Duration,
    tr: &mut Tracer,
) -> RemoteOutcome {
    let mut out = RemoteOutcome::default();
    let (srv_tx, srv_rx) = unbounded::<(u64, u32, Q3Table, ScanResponder)>();
    let mut server_tr = tr.fork(SERVER_SPAN_BASE);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            // Blocks in `recv` between queries; ends when the generator
            // drops its sender.
            while let Ok((qid, root, which, responder)) = srv_rx.recv() {
                let s = server_tr.open("core.olap.serve_scan_stream", root, qid);
                serve_scan_stream(which.table(db), responder);
                server_tr.close(s);
            }
        });
        let start = Instant::now();
        let mut last_done = start;
        let mut qid = 0u64;
        while qid < 2 || qid % 2 == 1 || start.elapsed() < duration {
            let shape = (qid % 2) as usize;
            let spec = remote_q3_spec(qid);
            let began = Instant::now();
            out.think_us
                .push(began.duration_since(last_done).as_secs_f64() * 1e6);
            let root = tr.open("q3_remote", 0, qid);
            let mut wire = 0u64;
            let [customers, neworders, orders] = Q3Table::ALL.map(|which| {
                let s = tr.open("stream.remote.scan_connection", root, qid);
                let (requester, responder) = scan_connection(LINK, RING);
                tr.close(s);
                if srv_tx.send((qid, root, which, responder)).is_err() {
                    panic!("scan server thread exited early");
                }
                let s = tr.open("core.olap.request_remote_scan", root, qid);
                let (rx, req_bytes) =
                    request_remote_scan(requester, &which.request(&spec), &Flow::identity());
                tr.close(s);
                wire += req_bytes as u64;
                rx
            });
            let s = tr.open("core.olap.run_wire", root, qid);
            let result = Q3Compute::new(spec).run_wire(customers, neworders, orders);
            tr.close(s);
            tr.close(root);
            last_done = Instant::now();
            wire += result.stream_bytes.iter().sum::<usize>() as u64;
            out.lat_us[shape].push(last_done.duration_since(began).as_secs_f64() * 1e6);
            if result.rows != expected[shape] {
                out.wrong += 1;
            }
            if out.wire_bytes[shape] != 0 && out.wire_bytes[shape] != wire {
                out.wire_bytes_varied = true;
            }
            out.wire_bytes[shape] = wire;
            qid += 1;
        }
        out.queries = qid;
        out.elapsed_s = start.elapsed().as_secs_f64();
        drop(srv_tx);
        server.join().expect("scan server thread");
    });
    tr.absorb(server_tr);
    out
}
