//! Ablation: wire bytes of columnar vs row data streams on the Q3
//! scan→flow→probe pipeline.
//!
//! The columnar arm runs the full pipeline over instant links (three
//! producer scans feeding the two-join compute consumer):
//! `stream_scan_columns` materializes straight into `ColumnBatch`
//! vectors with the filters and key projections pushed down to the scan,
//! the wire spends one tag per column, and the consumer builds/probes
//! from column slices without materializing a row
//! (`Q3Compute::run_columns`).
//!
//! The row arm is computed, not run: a row stream filtered en route ships
//! every qualifying row whole, with a wire tag per value, so its bytes
//! are Σ `Tuple::wire_size` over the customers passing the customer
//! filter, every new-order row, and the orders passing the order filter.
//!
//! Reported: the columnar pipeline's throughput in M input rows/s
//! (absolute, not gated — the benchmark's `olap_remote` workload measures
//! the stream pipeline end to end) and the wire bytes per stream.
//! Acceptance (gated in CI via `tools/bench_gate.rs` against
//! `tools/bench_baseline.json`): row/columnar wire bytes ≥ 2× in total,
//! and columnar lower on *every* stream. Both byte counts are
//! deterministic, so the gated ratio does not move between runs.
//!
//! The run emits `BENCH_columnar.json` at the repo root for the gate and
//! the CI artifact.

use std::sync::Arc;
use std::time::Instant;

use anydb_bench::{bench_json_path, figure_header, median, row, write_flat_json};
use anydb_common::Tuple;
use anydb_core::olap::{collect_table, exec_q3_local, stream_scan_columns, Q3Compute};
use anydb_storage::Table;
use anydb_stream::flow::{ColFlowSender, Flow};
use anydb_stream::link::{LinkSpec, SimLink};
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::{TpccConfig, TpccDb};

/// Rows per wire batch (the fig6 default).
const BATCH_ROWS: usize = 512;
/// Timed repetitions of the columnar pipeline; the median filters
/// scheduler noise.
const REPS: usize = 5;

struct ArmResult {
    secs: f64,
    rows: usize,
    stream_bytes: [usize; 3],
}

/// Wire bytes per stream `[customers, neworders, orders]` of the row
/// path: every qualifying row shipped whole.
fn row_stream_bytes(db: &TpccDb, spec: Q3Spec) -> [usize; 3] {
    let bytes = |table: &Table, keep: &dyn Fn(&Tuple) -> bool| -> usize {
        let rows = collect_table(table);
        rows.iter().filter(|t| keep(t)).map(Tuple::wire_size).sum()
    };
    [
        bytes(&db.customer, &|t| spec.customer_filter(t)),
        bytes(&db.neworder, &|_| true),
        bytes(&db.orders, &|t| spec.order_filter(t)),
    ]
}

/// One columnar pipeline execution: key projections with predicate
/// pushdown at the scan, vectorized build/probe.
fn run_col(db: &Arc<TpccDb>, spec: Q3Spec) -> ArmResult {
    let (ctx, crx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
    let (ntx, nrx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
    let (otx, orx) = SimLink::channel(LinkSpec::instant(), 1 << 14);
    let start = Instant::now();
    let producers = {
        let db = db.clone();
        std::thread::spawn(move || {
            stream_scan_columns(
                &db.customer,
                ColFlowSender::new(ctx, Flow::identity()),
                BATCH_ROWS,
                &Q3Spec::CUSTOMER_KEY_PROJ,
                Some(&spec.customer_pred()),
            );
            stream_scan_columns(
                &db.neworder,
                ColFlowSender::new(ntx, Flow::identity()),
                BATCH_ROWS,
                &Q3Spec::NEWORDER_KEY_PROJ,
                None,
            );
            stream_scan_columns(
                &db.orders,
                ColFlowSender::new(otx, Flow::identity()),
                BATCH_ROWS,
                &Q3Spec::ORDER_KEY_PROJ,
                Some(&spec.order_pred()),
            );
        })
    };
    let result = Q3Compute::new(spec).run_columns(crx, nrx, orx);
    producers.join().unwrap();
    ArmResult {
        secs: start.elapsed().as_secs_f64(),
        rows: result.rows,
        stream_bytes: result.stream_bytes,
    }
}

fn main() {
    figure_header(
        "Ablation: row vs columnar Q3 stream wire bytes",
        "Instant links, 512-row batches; row arm = qualifying full rows\n\
         with per-value wire tags (computed), columnar arm = scan pushdown\n\
         + packed column wire + vectorized probe (run).",
    );

    // Figure-6 database scale, slightly enlarged so one pipeline run is
    // long enough to time stably on the CI host.
    let cfg = TpccConfig {
        warehouses: 4,
        districts_per_warehouse: 10,
        customers_per_district: 500,
        items: 100,
        orders_per_district: 1000,
        open_order_fraction: 0.3,
        lines_per_order: 1,
        ..TpccConfig::default()
    };
    let db = Arc::new(TpccDb::load(cfg, 0xC01).unwrap());
    let spec = Q3Spec::default();
    let input_rows = db.customer.row_count() + db.neworder.row_count() + db.orders.row_count();
    let oracle = exec_q3_local(&db, &spec);
    let row_bytes = row_stream_bytes(&db, spec);

    // Warmup: fault in tables, warm the allocator.
    let _ = run_col(&db, spec);

    let mut col_secs = Vec::new();
    let mut col_bytes = [0usize; 3];
    for _ in 0..REPS {
        let c = run_col(&db, spec);
        assert_eq!(c.rows, oracle, "columnar path diverged from the oracle");
        col_bytes = c.stream_bytes;
        col_secs.push(c.secs);
    }

    let col_tput = input_rows as f64 / median(col_secs);
    let row_total: usize = row_bytes.iter().sum();
    let col_total: usize = col_bytes.iter().sum();

    let widths = [12usize, 16, 16, 14];
    row(
        &[
            "arm".into(),
            "M rows/s".into(),
            "wire KB total".into(),
            "KB c/n/o".into(),
        ],
        &widths,
    );
    for (label, tput, bytes) in [
        ("row", "-".to_string(), row_bytes),
        ("columnar", format!("{:.2}", col_tput / 1e6), col_bytes),
    ] {
        row(
            &[
                label.into(),
                tput,
                format!("{:.0}", bytes.iter().sum::<usize>() as f64 / 1024.0),
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    bytes[0] as f64 / 1024.0,
                    bytes[1] as f64 / 1024.0,
                    bytes[2] as f64 / 1024.0
                ),
            ],
            &widths,
        );
    }

    for i in 0..3 {
        assert!(
            col_bytes[i] < row_bytes[i],
            "stream {i}: columnar wire bytes not lower ({} vs {})",
            col_bytes[i],
            row_bytes[i]
        );
    }

    let wire_ratio = row_total as f64 / col_total as f64;
    println!();
    println!("row/columnar wire bytes: {wire_ratio:.2}x");
    println!("(acceptance: wire ratio >= 2.0x in total, > 1 on every stream)");

    let pairs: Vec<(String, f64)> = vec![
        ("col_q3_mrows_s".into(), col_tput / 1e6),
        ("row_wire_kb".into(), row_total as f64 / 1024.0),
        ("col_wire_kb".into(), col_total as f64 / 1024.0),
        ("ratio_wire_bytes_row_vs_columnar".into(), wire_ratio),
    ];
    let out = bench_json_path("BENCH_COLUMNAR_JSON", "BENCH_columnar.json");
    write_flat_json(&out, &pairs);
    println!();
    println!("wrote {}", out.display());
}
