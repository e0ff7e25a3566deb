//! Single-thread layer probes: what one call into each layer costs on the
//! workload's own database and generated inputs, with nothing else
//! running. They locate a change: a layer metric that moves names the
//! layer, and `benchmark/README.md` says which end-to-end metric on which
//! workload should move with it.
//!
//! Every probe goes through a public function of the layer it names.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anydb_common::metrics::Counter;
use anydb_common::{AcId, PartitionId, ScanReply, Tuple, TxnId, Value};
use anydb_core::component::AnyComponent;
use anydb_core::event::{Event, TxnOp};
use anydb_core::olap::{encode_remote_scan, exec_q3_local, exec_q3_shared, Q3Compute};
use anydb_core::ops::{exec_op, exec_whole_txn};
use anydb_core::strategy::payment_stage_groups;
use anydb_stream::flow::Flow;
use anydb_stream::inbox::Inbox;
use anydb_stream::spsc::spsc_channel;
use anydb_txn::sequencer::Sequencer;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::gen::TxnRequest;
use anydb_workload::tpcc::TpccDb;
use bytes::Bytes;
use crossbeam::channel::unbounded;

use crate::data::{gen_txns, load, remote_q3_spec, windowed_q3_spec, Scale, TxnMix};
use crate::metrics::Values;
use crate::remote::{encoded_replies, instant_streams, Q3Table, LINK};
use crate::stats::median;

/// What the probes measured.
pub struct Probes {
    /// Per-layer metrics by name.
    pub values: Values,
    /// Not a reported metric: the storage side's share of one remote
    /// query's service time (three `serve_scan`s plus encoding, µs), for
    /// `core.overhead_us_per_op` on `olap_remote`.
    pub remote_serve_us: f64,
}

/// Events per `send_many`/`drain_into` crossing in the inbox probe — the
/// engine's default transaction window.
const INBOX_BURST: usize = 32;

fn ns_per(iters: usize, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / iters.max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs every probe on a fresh database of `scale`. `effort` scales the
/// iteration counts (1.0 for a full run; the smoke test passes 1/50).
pub fn run(scale: Scale, seed: u64, effort: f64) -> Probes {
    let n = |full: usize, floor: usize| ((full as f64 * effort) as usize).max(floor);
    let mut v = Values::new();
    let loaded = load(scale, seed);
    let db = loaded.db;
    v.insert(
        "workload.load_rows_per_s",
        loaded.rows as f64 / loaded.load_s,
    );

    // Read-only layers first: the cold Q3 needs the scan cache empty, and
    // the transaction probes below change what the scans would see.
    olap(&db, n(20, 3), &mut v);
    let remote_serve_us = scans_and_codecs(&db, n(20, 2), &mut v);
    streams(n(20_000, 500), &mut v);
    transactions(&db, seed, n(20_000, 500), &mut v);
    storage(&db, n(100_000, 2_000), &mut v);
    v.insert("core.component.idle_rtt_us", idle_rtt_us(&db, n(100, 10)));
    Probes {
        values: v,
        remote_serve_us,
    }
}

fn olap(db: &Arc<TpccDb>, reps: usize, v: &mut Values) {
    let spec = Q3Spec::default();
    let start = Instant::now();
    black_box(exec_q3_local(db, &spec));
    v.insert("core.olap.q3_local_cold_ms", ms(start.elapsed()));

    let timed = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                ms(start.elapsed())
            })
            .collect();
        median(&samples)
    };
    let warm = timed(&|| {
        black_box(exec_q3_local(db, &spec));
    });
    let window: Vec<Q3Spec> = (0..8).map(windowed_q3_spec).collect();
    black_box(exec_q3_shared(db, &window)); // fills the hull-shaped cache entries
    let shared8 = timed(&|| {
        black_box(exec_q3_shared(db, &window));
    });
    v.insert("core.olap.q3_local_warm_ms", warm);
    v.insert("core.olap.q3_shared8_ms", shared8);
    v.insert("core.olap.shared_ratio", shared8 / warm);

    // The join alone: pre-encoded frames over links with no delay.
    let frames = encoded_replies(db, &spec);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let [customers, neworders, orders] = instant_streams(&frames);
            let start = Instant::now();
            black_box(Q3Compute::new(spec).run_wire(customers, neworders, orders));
            ms(start.elapsed())
        })
        .collect();
    v.insert("core.olap.wire_join_ms", median(&samples));
}

/// Returns [`Probes::remote_serve_us`].
fn scans_and_codecs(db: &Arc<TpccDb>, reps: usize, v: &mut Values) -> f64 {
    let spec = Q3Spec::default();
    let pred = spec.order_pred();

    // Uncached snapshot scan of orders with the date filter pushed down.
    let mut scanned = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        for p in 0..db.orders.partition_count() {
            let mut out = db.orders.column_batch(&Q3Spec::ORDER_KEY_PROJ);
            let snap = db
                .orders
                .scan_columns_snapshot(
                    PartitionId(p),
                    &Q3Spec::ORDER_KEY_PROJ,
                    Some(&pred),
                    &mut out,
                )
                .expect("orders scan");
            scanned += snap.prefix;
            black_box(out);
        }
    }
    v.insert(
        "storage.scan.rows_per_us",
        scanned as f64 / (start.elapsed().as_secs_f64() * 1e6),
    );

    // Serving the same scan as a wire request (scan + split into replies).
    let req = Q3Table::Orders.request(&spec);
    let mut scanned = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        let (replies, rows) = db.orders.serve_scan(&req).expect("orders serve_scan");
        scanned += rows;
        black_box(replies);
    }
    v.insert(
        "storage.serve_scan.us_per_krow",
        start.elapsed().as_secs_f64() * 1e6 / (scanned as f64 / 1e3),
    );

    // What one remote query puts on the wire, averaged over the two
    // shapes `olap_remote` alternates; the codecs over the open-ended
    // shape's own reply batches.
    let mut frames_total = 0usize;
    let mut wire_total = 0usize;
    let mut request_bytes = 0usize;
    let mut open_replies: Vec<ScanReply> = Vec::new();
    let start = Instant::now();
    for shape in 0..2u64 {
        let spec = remote_q3_spec(shape);
        for which in Q3Table::ALL {
            let req = which.request(&spec);
            let asked = encode_remote_scan(&req, &Flow::identity())
                .expect("identity flow has a wire form")
                .len();
            let (replies, _) = which.table(db).serve_scan(&req).expect("Q3 serve_scan");
            frames_total += replies.len();
            wire_total += asked + replies.iter().map(|r| r.encode().len()).sum::<usize>();
            if shape == 1 {
                request_bytes += asked;
                open_replies.extend(replies);
            }
        }
    }
    let remote_serve_us = start.elapsed().as_secs_f64() * 1e6 / 2.0;
    v.insert("stream.link.frames_per_query", frames_total as f64 / 2.0);
    v.insert("stream.link.wire_bytes_per_query", wire_total as f64 / 2.0);
    v.insert("common.scan.request_bytes", request_bytes as f64);
    // The least the link model charges one query: a request and a reply
    // propagation plus every byte at link bandwidth.
    v.insert(
        "stream.link.modeled_ms_per_query",
        ms(LINK.latency * 2 + LINK.transfer_time(wire_total / 2)),
    );

    let start = Instant::now();
    let mut encoded: Vec<Bytes> = Vec::new();
    for _ in 0..reps {
        encoded = open_replies.iter().map(ScanReply::encode).collect();
        black_box(&encoded);
    }
    let bytes: usize = encoded.iter().map(Bytes::len).sum();
    let mb = (bytes * reps) as f64 / 1e6;
    v.insert(
        "common.column.encode_mb_per_s",
        mb / start.elapsed().as_secs_f64(),
    );
    let start = Instant::now();
    for _ in 0..reps {
        for frame in &encoded {
            black_box(ScanReply::decode(frame).expect("own frame decodes"));
        }
    }
    v.insert(
        "common.column.decode_mb_per_s",
        mb / start.elapsed().as_secs_f64(),
    );

    // Vectorized refinement of a hull-scanned batch (the shared pipeline's
    // per-member step): the date predicate re-addressed to the shared
    // projection, selected over every order row.
    let local = pred
        .project_columns(&Q3Spec::ORDER_SHARED_PROJ)
        .expect("shared projection carries o_entry_d");
    let batches: Vec<_> = (0..db.orders.partition_count())
        .map(|p| {
            let mut out = db.orders.column_batch(&Q3Spec::ORDER_SHARED_PROJ);
            db.orders
                .scan_columns_snapshot(PartitionId(p), &Q3Spec::ORDER_SHARED_PROJ, None, &mut out)
                .expect("orders scan");
            out
        })
        .collect();
    let rows: usize = batches.iter().map(|b| b.rows()).sum();
    let mut sel = Vec::new();
    let select_reps = reps * 10;
    let start = Instant::now();
    for _ in 0..select_reps {
        for b in &batches {
            sel.clear();
            local.select(b, &mut sel);
            black_box(&sel);
        }
    }
    v.insert(
        "common.column.select_rows_per_us",
        (rows * select_reps) as f64 / (start.elapsed().as_secs_f64() * 1e6),
    );
    remote_serve_us
}

fn streams(iters: usize, v: &mut Values) {
    let (tx, rx) = Inbox::<u64>::new();
    let mut out = Vec::with_capacity(INBOX_BURST);
    let start = Instant::now();
    for i in 0..iters {
        tx.send_many((0..INBOX_BURST as u64).map(|k| k + i as u64));
        out.clear();
        rx.drain_into(&mut out, INBOX_BURST)
            .expect("burst was just sent");
        black_box(&out);
    }
    v.insert(
        "stream.inbox.send_drain_ns",
        ns_per(iters * INBOX_BURST, start.elapsed()),
    );

    let (mut tx, mut rx) = spsc_channel::<u64>(1024);
    let pairs = iters * INBOX_BURST;
    let start = Instant::now();
    for i in 0..pairs as u64 {
        tx.push(i).expect("ring has room");
        black_box(rx.pop().expect("just pushed"));
    }
    v.insert("stream.spsc.push_pop_ns", ns_per(pairs, start.elapsed()));

    let sequencer = Sequencer::new(4);
    let start = Instant::now();
    for i in 0..pairs {
        black_box(sequencer.stamp(i % 4));
    }
    v.insert("txn.sequencer.stamp_ns", ns_per(pairs, start.elapsed()));
}

fn transactions(db: &Arc<TpccDb>, seed: u64, n: usize, v: &mut Values) {
    let start = Instant::now();
    let mix = gen_txns(&db.cfg, TxnMix::UniformMix, 2 * n, seed ^ 0x9e0);
    v.insert("workload.gen_ns_per_txn", ns_per(2 * n, start.elapsed()));

    let (payments, neworders): (Vec<_>, Vec<_>) = mix
        .into_iter()
        .partition(|r| matches!(r, TxnRequest::Payment(_)));
    let run_whole = |reqs: &[TxnRequest]| {
        let start = Instant::now();
        for (i, req) in reqs.iter().enumerate() {
            exec_whole_txn(db, TxnId(i as u64), req, None).expect("serial txn cannot fail");
        }
        ns_per(reqs.len(), start.elapsed())
    };
    v.insert("core.ops.payment_ns", run_whole(&payments));
    v.insert("core.ops.neworder_ns", run_whole(&neworders));

    let params: Vec<_> = payments
        .iter()
        .filter_map(|r| match r {
            TxnRequest::Payment(p) => Some(p),
            TxnRequest::NewOrder(_) => None,
        })
        .collect();
    let start = Instant::now();
    let groups: Vec<Vec<(u32, Vec<TxnOp>)>> =
        params.iter().map(|p| payment_stage_groups(p)).collect();
    v.insert(
        "core.strategy.decompose_ns",
        ns_per(params.len(), start.elapsed()),
    );
    let start = Instant::now();
    for (i, stages) in groups.iter().enumerate() {
        for op in stages.iter().flat_map(|(_, ops)| ops) {
            exec_op(db, TxnId(i as u64), op, None).expect("serial op cannot fail");
        }
    }
    v.insert(
        "core.ops.op_group_ns",
        ns_per(groups.len(), start.elapsed()),
    );
}

fn storage(db: &Arc<TpccDb>, n: usize, v: &mut Values) {
    let cfg = &db.cfg;
    let (wh, di, cu) = (
        cfg.warehouses as usize,
        cfg.districts_per_warehouse as usize,
        cfg.customers_per_district as usize,
    );
    // A fixed odd stride walks the key space without an RNG on the path.
    let key = |i: usize| {
        let k = i.wrapping_mul(7919);
        (
            (k % wh) as i64 + 1,
            (k / wh % di) as i64 + 1,
            (k / (wh * di) % cu) as i64 + 1,
        )
    };
    let start = Instant::now();
    for i in 0..n {
        let (w, d, c) = key(i);
        black_box(db.customer_rid(w, d, c).expect("loaded customer"));
    }
    v.insert("storage.table.get_rid_ns", ns_per(n, start.elapsed()));

    let rids: Vec<_> = (0..wh * di)
        .map(|i| {
            db.district_rid((i % wh) as i64 + 1, (i / wh) as i64 + 1)
                .expect("loaded district")
        })
        .collect();
    let start = Instant::now();
    for i in 0..n {
        db.district
            .update(rids[i % rids.len()], |t| {
                let col = anydb_workload::tpcc::cols::district::D_YTD;
                let ytd = t.get(col).as_float().unwrap_or(0.0);
                t.set(col, Value::Float(ytd + 1.0));
            })
            .expect("district row exists");
    }
    v.insert("storage.table.update_ns", ns_per(n, start.elapsed()));

    // History rows are what every payment appends; the worst single
    // insert is where a growth stall (reallocation, index resize) shows.
    let mut worst = Duration::ZERO;
    let start = Instant::now();
    for i in 0..n {
        let (w, d, c) = key(i);
        let row = Tuple::new(vec![
            Value::Int(w),
            Value::Int(db.next_history_id()),
            Value::Int(d),
            Value::Int(c),
            Value::Int(20200101),
            Value::Float(1.0),
        ]);
        let one = Instant::now();
        db.history.insert(row).expect("fresh history key");
        worst = worst.max(one.elapsed());
    }
    v.insert("storage.table.insert_ns", ns_per(n, start.elapsed()));
    v.insert("storage.table.insert_max_us", worst.as_secs_f64() * 1e6);
}

/// One event to an AC that has gone idle, and back: what the AC's
/// backoff sleep adds to a request arriving at a quiet system.
fn idle_rtt_us(db: &Arc<TpccDb>, n: usize) -> f64 {
    let (ac, handle) = AnyComponent::spawn(AcId(0), db.clone(), None, Arc::new(Counter::new()));
    let (done_tx, done_rx) = unbounded();
    let reqs = gen_txns(&db.cfg, TxnMix::SkewedPayments, n, 1);
    let samples: Vec<f64> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, req)| {
            // Long enough for the AC's backoff to reach its sleep step.
            std::thread::sleep(Duration::from_millis(2));
            let start = Instant::now();
            ac.send(Event::ExecuteTxn {
                txn: TxnId(i as u64),
                req,
                done: done_tx.clone(),
            });
            done_rx.recv().expect("AC answers");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ac.send(Event::Shutdown);
    handle.join().expect("AC thread");
    median(&samples)
}
