//! Ablation: row vs columnar **HTAP-local** Q3 over the per-column
//! storage mirror (PR 4–5 tentpoles), plus the zero-copy
//! `ColumnBatch::split` microbench.
//!
//! All Q3 arms are the fully-aggregated execution an HTAP OLAP worker
//! runs inline for `Event::QueryQ3` — no streams, one thread, same
//! database:
//!
//! * **row**: `anydb_dbx1000::exec_q3`, the baseline's executor and the
//!   one row-at-a-time Q3 left — per-row latch, per-`Value` key
//!   extraction, tuple-keyed hash sets.
//! * **columnar**: `exec_q3_local` — epoch-validated shared snapshot
//!   scans (`scan_columns_snapshot_shared`, served zero-copy while the
//!   scanned column sets are quiescent) feeding dense-bitmap joins over
//!   zipped key slices. This is the steady-state HTAP number: standing
//!   queries ride one shared scan, SharedDB-style.
//! * **columnar cold**: the same execution with a value-changing write
//!   landing **inside every table's projection ∪ filter column set** on
//!   every partition between queries, so every scan re-materializes.
//!   Since PR 5 re-materialization copies from the partition's column
//!   mirror (sequential typed-vector reads) instead of walking tuples
//!   (one cache miss per row), which is what moved this arm from ≈ 1.0×
//!   row to a gated multiple of it.
//! * **columnar disjoint-write**: writes between queries (`c_balance`,
//!   `o_carrier_id`) land **outside** every Q3 column set — with
//!   column-level epochs the cached shared scans survive and the arm
//!   must track the steady-state number. This is the shared-cache
//!   survival metric: OLTP payment/delivery traffic does not evict
//!   standing analytics.
//!
//! The split microbench pins the zero-copy claim: splitting a batch into
//! a fixed number of wire batches must cost the same whether the batch
//! holds 4k or 64k rows (views over shared buffers), where the copying
//! implementation scaled linearly with the row count.
//!
//! Acceptance (gated in CI via `tools/bench_gate.rs`): steady-state
//! columnar ≥ 1.8× row throughput, cold ≥ 2.0× (the mirror's reason to
//! exist at this scale), disjoint-write ≥ 4.0× (must beat cold by
//! riding the cache; observed ≈ steady-state), and the 64k/4k
//! split-latency ratio stays ~flat (ceiling 2.0 — the pre-refactor
//! copying split measured ~16×). Run-to-run variance: the gated ratios
//! moved well under 15% over repeated runs on the 1-core CI host
//! (single-threaded arms, so scheduler noise largely cancels); the
//! floors sit far below the measured values, so normal jitter never
//! trips the 15%-tolerance gate.
//!
//! The run emits `BENCH_htap.json` at the repo root for the gate and the
//! CI artifact.

use std::hint::black_box;
use std::time::Instant;

use anydb_bench::{bench_json_path, figure_header, median, row, write_flat_json};
use anydb_common::{ColumnBatch, DataType, PartitionId, Rid, Tuple, Value};
use anydb_core::olap::exec_q3_local;
use anydb_dbx1000::exec_q3;
use anydb_storage::Table;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::{cols, TpccConfig, TpccDb};

/// Timed repetitions per arm; the median filters scheduler noise.
const REPS: usize = 5;
/// Wire batches per split in the microbench (fixed, so only the input
/// row count varies).
const SPLIT_PARTS: usize = 16;
/// Split timing iterations per input size.
const SPLIT_ITERS: usize = 20_000;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Applies `f` to slot 0 of every partition of `table` — one racing OLTP
/// write per partition.
fn write_each_partition(table: &Table, mut f: impl FnMut(&mut Tuple)) {
    for p in 0..table.partition_count() {
        let rid = Rid::new(table.id(), PartitionId(p), 0);
        table.update(rid, |tu| f(tu)).unwrap();
    }
}

/// One **value-changing** write per partition inside every table's Q3
/// projection ∪ filter column set, invalidating all cached shared scans
/// (column-level epochs ignore writes that change nothing, so the old
/// identity-update trick would leave the cache warm). The Q3 result is
/// provably unchanged:
/// * customer: rewrite `c_state` keeping its first character — the
///   filter only reads the prefix, the join keys are untouched;
/// * orders: advance `o_entry_d` by a day — still inside the open-ended
///   date window;
/// * neworder: all three columns are join keys, so no in-place write is
///   result-neutral — append a sentinel row with a fresh **negative**
///   `no_o_id` instead (no order ever matches it, and the grown prefix
///   invalidates the partition like any append).
fn dirty_q3_tables(db: &TpccDb, round: &mut i64) {
    *round += 1;
    let n = *round;
    write_each_partition(&db.customer, |tu| {
        let state = tu.get(cols::customer::C_STATE).as_str().unwrap();
        let head = &state[..1];
        tu.set(cols::customer::C_STATE, Value::str(format!("{head}{n}")));
    });
    write_each_partition(&db.orders, |tu| {
        let d = tu.get(cols::orders::O_ENTRY_D).as_int().unwrap();
        tu.set(cols::orders::O_ENTRY_D, Value::Int(d + 1));
    });
    for w in 1..=db.neworder.partition_count() as i64 {
        db.neworder
            .insert(Tuple::new(vec![
                Value::Int(w),
                Value::Int(1),
                Value::Int(-(n * 64 + w)),
            ]))
            .unwrap();
    }
}

/// One write per partition to columns **outside** every Q3 column set —
/// the payment/delivery shape (`c_balance`, `o_carrier_id`). With
/// column-level epochs the cached shared scans must survive these
/// untouched. (New-order rows are pure join keys; its real OLTP traffic
/// is insert/delete, which legitimately invalidates, so it stays
/// quiescent in this arm.)
fn dirty_disjoint_columns(db: &TpccDb, round: &mut i64) {
    *round += 1;
    let n = *round;
    write_each_partition(&db.customer, |tu| {
        tu.set(cols::customer::C_BALANCE, Value::Float(n as f64 + 0.25));
    });
    write_each_partition(&db.orders, |tu| {
        tu.set(cols::orders::O_CARRIER_ID, Value::Int(n));
    });
}

/// Builds a `(int, int, int, str)` batch of `rows` rows — the key-ish
/// shape Q3 streams ship, plus a string column so a copying split would
/// pay arena memcpys too.
fn split_input(rows: usize) -> ColumnBatch {
    let types = [DataType::Int, DataType::Int, DataType::Int, DataType::Str];
    let mut b = ColumnBatch::new(&types);
    let mut app = b.appender();
    app.reserve(rows);
    for i in 0..rows as i64 {
        app.push_row(&[
            Value::Int(i % 4),
            Value::Int(i % 10),
            Value::Int(i),
            Value::str("payload"),
        ])
        .unwrap();
    }
    drop(app);
    b
}

/// Median seconds per split of `rows` rows into [`SPLIT_PARTS`] batches.
fn time_split(rows: usize) -> f64 {
    let input = split_input(rows);
    let batch_rows = rows.div_ceil(SPLIT_PARTS);
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..SPLIT_ITERS {
            // Clone is O(columns) on shared buffers; split consumes it.
            let parts = black_box(input.clone()).split(batch_rows);
            debug_assert_eq!(parts.len(), SPLIT_PARTS);
            black_box(parts);
        }
        samples.push(start.elapsed().as_secs_f64() / SPLIT_ITERS as f64);
    }
    median(samples)
}

fn main() {
    figure_header(
        "Ablation: row vs columnar HTAP-local Q3 + zero-copy split",
        "Single thread, same database; row arm = per-row latches + tuple\n\
         hash sets, columnar arm = snapshot scans with pushdown + bitmap\n\
         joins over key slices. Split: 16 wire batches from 4k vs 64k rows.",
    );

    // abl_columnar's database scale: long enough to time stably on the
    // CI host, small enough to load in seconds.
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
    let db = TpccDb::load(cfg, 0x47A9).unwrap();
    let spec = Q3Spec::default();
    let input_rows = db.customer.row_count() + db.neworder.row_count() + db.orders.row_count();

    // Warmup both arms (fault in tables, warm the allocator) and check
    // agreement once — also on a bounded window, so the IntBetween
    // pushdown path is exercised.
    let oracle = exec_q3(&db, &spec);
    assert_eq!(exec_q3_local(&db, &spec), oracle, "columnar diverged");
    let windowed = Q3Spec {
        entry_date_max: 20091231,
        ..Q3Spec::default()
    };
    assert_eq!(
        exec_q3_local(&db, &windowed),
        exec_q3(&db, &windowed),
        "columnar diverged on the bounded window"
    );

    // Functional check of the survival claim before timing anything: a
    // cached customer key scan must be served from the very same buffers
    // across a disjoint-column write, and re-materialize after a write
    // inside its column set.
    let mut dirty_round = 0i64;
    {
        let proj = Q3Spec::CUSTOMER_KEY_PROJ;
        let pred = spec.customer_pred();
        let p0 = PartitionId(0);
        let (before, _) = db
            .customer
            .scan_columns_snapshot_shared(p0, &proj, Some(&pred))
            .unwrap();
        dirty_disjoint_columns(&db, &mut dirty_round);
        let (after, _) = db
            .customer
            .scan_columns_snapshot_shared(p0, &proj, Some(&pred))
            .unwrap();
        assert!(
            after.column(0).shares_buffer_with(before.column(0)),
            "disjoint-column write must not evict the cached shared scan"
        );
        dirty_q3_tables(&db, &mut dirty_round);
        let (evicted, _) = db
            .customer
            .scan_columns_snapshot_shared(p0, &proj, Some(&pred))
            .unwrap();
        assert!(
            !evicted.column(0).shares_buffer_with(before.column(0)),
            "in-set write must re-materialize the shared scan"
        );
    }

    let mut row_secs = Vec::new();
    let mut col_secs = Vec::new();
    let mut cold_secs = Vec::new();
    let mut disjoint_secs = Vec::new();
    for _ in 0..REPS {
        let (rows, secs) = timed(|| exec_q3(&db, &spec));
        assert_eq!(rows, oracle);
        row_secs.push(secs);
        // Cold arm: every partition's Q3 column set written since the
        // last query, so all shared scans re-materialize (from the
        // column mirror).
        dirty_q3_tables(&db, &mut dirty_round);
        let (rows, secs) = timed(|| exec_q3_local(&db, &spec));
        assert_eq!(rows, oracle);
        cold_secs.push(secs);
        // Steady-state arm: the database is quiescent, the query rides
        // the shared scans the cold run just materialized.
        let (rows, secs) = timed(|| exec_q3_local(&db, &spec));
        assert_eq!(rows, oracle);
        col_secs.push(secs);
        // Disjoint-write arm: OLTP writes race, but only to columns
        // outside the Q3 sets — the caches must survive.
        dirty_disjoint_columns(&db, &mut dirty_round);
        let (rows, secs) = timed(|| exec_q3_local(&db, &spec));
        assert_eq!(rows, oracle);
        disjoint_secs.push(secs);
    }
    let row_tput = input_rows as f64 / median(row_secs);
    let col_tput = input_rows as f64 / median(col_secs);
    let cold_tput = input_rows as f64 / median(cold_secs);
    let disjoint_tput = input_rows as f64 / median(disjoint_secs);
    let tput_ratio = col_tput / row_tput;
    let cold_ratio = cold_tput / row_tput;
    let disjoint_ratio = disjoint_tput / row_tput;

    let split_4k = time_split(4096);
    let split_64k = time_split(65536);
    let split_ratio = split_64k / split_4k;

    let widths = [16usize, 16, 14];
    row(
        &["arm".into(), "M rows/s".into(), "Q3 rows".into()],
        &widths,
    );
    for (label, tput) in [
        ("row", row_tput),
        ("columnar", col_tput),
        ("columnar cold", cold_tput),
        ("col disjoint-write", disjoint_tput),
    ] {
        row(
            &[
                label.into(),
                format!("{:.2}", tput / 1e6),
                format!("{oracle}"),
            ],
            &widths,
        );
    }
    println!();
    println!(
        "columnar/row throughput: {tput_ratio:.2}x (cold {cold_ratio:.2}x, \
         disjoint-write {disjoint_ratio:.2}x)   \
         split 4k: {:.2}us   split 64k: {:.2}us   64k/4k: {split_ratio:.2}x",
        split_4k * 1e6,
        split_64k * 1e6,
    );
    println!(
        "(acceptance: steady-state >= 1.8x, cold >= 2.0x, \
         disjoint-write >= 4.0x, split ratio ~flat <= 2.0)"
    );

    let pairs: Vec<(String, f64)> = vec![
        ("htap_row_q3_mrows_s".into(), row_tput / 1e6),
        ("htap_col_q3_mrows_s".into(), col_tput / 1e6),
        ("htap_col_q3_cold_mrows_s".into(), cold_tput / 1e6),
        ("htap_col_q3_disjoint_mrows_s".into(), disjoint_tput / 1e6),
        ("ratio_htap_columnar_vs_row_q3".into(), tput_ratio),
        ("ratio_htap_columnar_cold_vs_row_q3".into(), cold_ratio),
        ("ratio_htap_disjoint_write_vs_row_q3".into(), disjoint_ratio),
        ("split_latency_us_4k_rows".into(), split_4k * 1e6),
        ("split_latency_us_64k_rows".into(), split_64k * 1e6),
        ("ratio_split_latency_64k_vs_4k_rows".into(), split_ratio),
    ];
    let out = bench_json_path("BENCH_HTAP_JSON", "BENCH_htap.json");
    write_flat_json(&out, &pairs);
    println!();
    println!("wrote {}", out.display());
}
