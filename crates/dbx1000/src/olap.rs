//! In-process OLAP execution for the baseline: CH-benCHmark Q3 executed
//! with plain scans and hash joins on the calling thread.
//!
//! This is deliberately the *coupled* design the paper criticizes: when a
//! TE thread runs this query it is not executing transactions, which is
//! what drags DBx1000's OLTP throughput down in the HTAP phases of
//! Figure 1.

use anydb_common::fxmap::FxHashSet;
use anydb_common::PartitionId;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::TpccDb;

/// Executes Q3 and returns the number of qualifying open orders.
pub fn exec_q3(db: &TpccDb, spec: &Q3Spec) -> usize {
    // Scan 1: qualifying customers -> join-key set (build side 1).
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

    // Scan 2 + join 1: qualifying orders of qualifying customers (build
    // side 2).
    let mut order_keys: FxHashSet<(i64, i64, i64)> = FxHashSet::default();
    for p in 0..db.orders.partition_count() {
        if let Ok(part) = db.orders.partition(PartitionId(p)) {
            part.scan(|_, row| {
                let t = row.tuple();
                if spec.order_filter(t) && cust_keys.contains(&Q3Spec::order_customer_key(t)) {
                    order_keys.insert(Q3Spec::order_key(t));
                }
            });
        }
    }

    // Scan 3 + join 2: probe new-order against the order set.
    let mut hits = 0usize;
    for p in 0..db.neworder.partition_count() {
        if let Ok(part) = db.neworder.partition(PartitionId(p)) {
            part.scan(|_, row| {
                if order_keys.contains(&Q3Spec::neworder_key(row.tuple())) {
                    hits += 1;
                }
            });
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_common::Tuple;
    use anydb_workload::chbench::reference_q3;
    use anydb_workload::tpcc::TpccConfig;

    fn collect_all(table: &anydb_storage::Table) -> Vec<Tuple> {
        let mut out = Vec::new();
        for p in 0..table.partition_count() {
            out.extend(
                table
                    .partition(PartitionId(p))
                    .unwrap()
                    .collect_matching(|_| true),
            );
        }
        out
    }

    #[test]
    fn matches_reference_oracle() {
        let db = TpccDb::load(TpccConfig::small(), 21).unwrap();
        let (customers, orders, neworders) = (
            collect_all(&db.customer),
            collect_all(&db.orders),
            collect_all(&db.neworder),
        );
        // The open-ended default window and a bounded one.
        let windowed = Q3Spec {
            entry_date_max: 20091231,
            ..Q3Spec::default()
        };
        for spec in [Q3Spec::default(), windowed] {
            let got = exec_q3(&db, &spec);
            assert_eq!(got, reference_q3(&spec, &customers, &orders, &neworders));
            assert!(got > 0, "{spec:?}");
        }
    }

    #[test]
    fn empty_date_range_yields_zero() {
        let db = TpccDb::load(TpccConfig::small(), 22).unwrap();
        let spec = Q3Spec {
            entry_date_min: 99_99_99_99,
            ..Q3Spec::default()
        };
        assert_eq!(exec_q3(&db, &spec), 0);
    }
}
