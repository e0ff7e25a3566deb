//! Output checks: a run is only a result if the program's outputs are
//! correct. Every failure lands in [`Checks`], which sets `correct` in the
//! result line and the process exit code.

use std::sync::Arc;

use anydb_common::metrics::Counter;
use anydb_common::{AcId, PartitionId, QueryId};
use anydb_core::component::AnyComponent;
use anydb_core::event::{Completion, Event};
use anydb_core::olap::{collect_table, exec_q3_local, Q3Compute};
use anydb_storage::Table;
use anydb_workload::chbench::{reference_q3, Q3Spec};
use anydb_workload::tpcc::cols::{district, orders, warehouse};
use anydb_workload::tpcc::TpccDb;
use crossbeam::channel::unbounded;

use crate::remote::{encoded_replies, instant_streams};

/// Loader constants the money check subtracts (`tpcc/load.rs`).
const W_YTD_INITIAL: f64 = 300_000.0;
const D_YTD_INITIAL: f64 = 30_000.0;

/// Accumulated verdicts and request counts of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Requests sent to the program.
    pub attempted: u64,
    /// Requests that failed, were refused, or were never answered.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a check's verdict under `what`.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// Records a boolean check; `why` describes the failure.
    pub fn require(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{what}: {}", why()));
        }
    }

    /// Adds a phase's request counts.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// True when no request failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

fn for_each_row(table: &Table, mut f: impl FnMut(&anydb_common::Tuple)) {
    for p in 0..table.partition_count() {
        if let Ok(part) = table.partition(PartitionId(p)) {
            part.scan(|_, row| f(row.tuple()));
        }
    }
}

/// Every payment adds its amount to one warehouse and one district: the
/// W_YTD delta must equal the Σ D_YTD delta, and one history row must
/// exist per payment.
pub fn money_conserved(db: &TpccDb, payments: u64) -> Result<(), String> {
    let mut w_delta = 0.0;
    for_each_row(&db.warehouse, |t| {
        w_delta += t.get(warehouse::W_YTD).as_float().unwrap_or(f64::NAN) - W_YTD_INITIAL;
    });
    let mut d_delta = 0.0;
    for_each_row(&db.district, |t| {
        d_delta += t.get(district::D_YTD).as_float().unwrap_or(f64::NAN) - D_YTD_INITIAL;
    });
    // Sums pass 1e8 on fast runs, where a fixed epsilon is below f64
    // accumulation noise.
    let tol = (w_delta.abs() * 1e-9).max(1e-6);
    if (w_delta - d_delta).abs() >= tol || w_delta.is_nan() || d_delta.is_nan() {
        return Err(format!("W_YTD delta {w_delta} != Σ D_YTD delta {d_delta}"));
    }
    let history = db.history.row_count() as u64;
    if history != payments {
        return Err(format!("{history} history rows for {payments} payments"));
    }
    Ok(())
}

/// New-order bookkeeping: per district `D_NEXT_O_ID − 1` equals the
/// largest `O_ID`; the order-line count equals Σ `O_OL_CNT`.
pub fn orders_consistent(db: &TpccDb) -> Result<(), String> {
    let districts = db.cfg.districts_per_warehouse as usize;
    let slot = |w: i64, d: i64| (w as usize - 1) * districts + d as usize - 1;
    let mut max_o_id = vec![0i64; db.cfg.warehouses as usize * districts];
    let mut lines_owed = 0i64;
    for_each_row(&db.orders, |t| {
        let int = |c| t.get(c).as_int().unwrap_or(0);
        let s = slot(int(orders::O_W_ID), int(orders::O_D_ID));
        max_o_id[s] = max_o_id[s].max(int(orders::O_ID));
        lines_owed += int(orders::O_OL_CNT);
    });
    let mut bad = None;
    for_each_row(&db.district, |t| {
        let int = |c| t.get(c).as_int().unwrap_or(0);
        let (w, d) = (int(district::D_W_ID), int(district::D_ID));
        let next = int(district::D_NEXT_O_ID);
        if next - 1 != max_o_id[slot(w, d)] {
            bad = Some(format!(
                "district ({w},{d}): D_NEXT_O_ID-1 = {} but max O_ID = {}",
                next - 1,
                max_o_id[slot(w, d)]
            ));
        }
    });
    if let Some(why) = bad {
        return Err(why);
    }
    let lines = db.orderline.row_count() as i64;
    if lines != lines_owed {
        return Err(format!("{lines} order lines for Σ O_OL_CNT = {lines_owed}"));
    }
    Ok(())
}

/// Q3 over in-process links with no delay: `serve_scan` replies encoded,
/// pushed through instant links, joined by `run_wire`.
fn q3_over_instant_wire(db: &TpccDb, spec: &Q3Spec) -> usize {
    let [customers, neworders, orders] = instant_streams(&encoded_replies(db, spec));
    Q3Compute::new(*spec)
        .run_wire(customers, neworders, orders)
        .rows
}

/// On a quiesced database, four independent executions of each spec must
/// agree: an AnyComponent answering `QueryQ3`, `exec_q3_local`, the wire
/// path, and the row-level oracle `reference_q3`.
pub fn q3_paths_agree(db: &Arc<TpccDb>, specs: &[Q3Spec]) -> Result<(), String> {
    let (customers, orders, neworders) = (
        collect_table(&db.customer),
        collect_table(&db.orders),
        collect_table(&db.neworder),
    );
    let (ac, handle) = AnyComponent::spawn(AcId(0), db.clone(), None, Arc::new(Counter::new()));
    let (done_tx, done_rx) = unbounded();
    let mut verdict = Ok(());
    for (i, spec) in specs.iter().enumerate() {
        let oracle = reference_q3(spec, &customers, &orders, &neworders);
        ac.send(Event::QueryQ3 {
            query: QueryId(i as u64),
            spec: *spec,
            done: done_tx.clone(),
        });
        let via_ac = match done_rx.recv().map(|b| b.0) {
            Ok(c) => match c.as_slice() {
                [Completion::Query { rows, .. }] => Some(*rows),
                _ => None,
            },
            Err(_) => None,
        };
        let local = exec_q3_local(db, spec);
        let wire = q3_over_instant_wire(db, spec);
        if via_ac != Some(oracle) || local != oracle || wire != oracle {
            verdict = Err(format!(
                "spec {i}: reference {oracle}, AC {via_ac:?}, local {local}, wire {wire}"
            ));
            break;
        }
    }
    ac.send(Event::Shutdown);
    handle.join().expect("AC thread");
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_common::TxnId;
    use anydb_core::ops::exec_whole_txn;
    use anydb_workload::tpcc::TpccConfig;

    use crate::data::{gen_txns, windowed_q3_spec, TxnMix};

    #[test]
    fn invariants_hold_after_a_serial_mix_and_catch_damage() {
        let db = TpccDb::load(TpccConfig::small(), 7).unwrap();
        let reqs = gen_txns(&db.cfg, TxnMix::UniformMix, 400, 3);
        let mut payments = 0;
        for (i, req) in reqs.iter().enumerate() {
            exec_whole_txn(&db, TxnId(i as u64), req, None).unwrap();
            payments += matches!(req, anydb_workload::tpcc::gen::TxnRequest::Payment(_)) as u64;
        }
        assert_eq!(money_conserved(&db, payments), Ok(()));
        assert_eq!(orders_consistent(&db), Ok(()));
        // A lost history row and a torn warehouse update are both caught.
        assert!(money_conserved(&db, payments + 1).is_err());
        let rid = db.warehouse_rid(1).unwrap();
        db.warehouse
            .update(rid, |t| {
                t.set(warehouse::W_YTD, anydb_common::Value::Float(1.0))
            })
            .unwrap();
        assert!(money_conserved(&db, payments).is_err());
        // So is a district whose order counter ran ahead of its orders.
        let rid = db.district_rid(1, 1).unwrap();
        db.district
            .update(rid, |t| {
                t.set(district::D_NEXT_O_ID, anydb_common::Value::Int(10_000))
            })
            .unwrap();
        assert!(orders_consistent(&db).is_err());
    }

    #[test]
    fn all_four_q3_paths_agree_on_a_loaded_db() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 11).unwrap());
        let specs: Vec<Q3Spec> = (0..4).map(windowed_q3_spec).collect();
        assert_eq!(q3_paths_agree(&db, &specs), Ok(()));
        assert!(exec_q3_local(&db, &specs[3]) > 0, "degenerate scale");
    }

    #[test]
    fn checks_turn_failures_into_an_incorrect_run() {
        let mut c = Checks::default();
        c.count(10, 0);
        c.record("fine", Ok(()));
        assert!(c.correct());
        c.record("broken", Err("why".into()));
        c.require("held", true, || unreachable!());
        c.require("also broken", false, || "because".into());
        assert!(!c.correct());
        assert_eq!(c.failures, ["broken: why", "also broken: because"]);
        let mut c = Checks::default();
        c.count(10, 1);
        assert!(!c.correct());
    }
}
