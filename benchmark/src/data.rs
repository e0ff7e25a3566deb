//! Database scales, loading, and the seeded input generators.
//!
//! `--seed` reaches the program only through here: it seeds the TPC-C
//! loader and the request generators; the program sees generated inputs.

use std::sync::Arc;
use std::time::Instant;

use anydb_common::dist::HotSpot;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::gen::{MixGen, PaymentGen, TxnRequest};
use anydb_workload::tpcc::{TpccConfig, TpccDb};

/// The two database sizes the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `TpccConfig::default()`: 4 warehouses, 12k orders — the OLTP
    /// workloads' working set (fits every cache; growth comes from
    /// inserts).
    Default,
    /// 4 wh × 10 d × 1000 customers and 1000 orders per district: 40k
    /// customers, 40k orders, 400k order lines — large enough that a Q3
    /// scan is milliseconds, small enough to load in ≈0.3 s.
    Mid,
}

impl Scale {
    /// The TPC-C configuration of this scale.
    pub fn config(self) -> TpccConfig {
        match self {
            Scale::Default => TpccConfig::default(),
            Scale::Mid => TpccConfig {
                warehouses: 4,
                districts_per_warehouse: 10,
                customers_per_district: 1000,
                orders_per_district: 1000,
                lines_per_order: 10,
                ..TpccConfig::default()
            },
        }
    }
}

/// A freshly loaded database and what loading it cost.
pub struct Loaded {
    /// The database.
    pub db: Arc<TpccDb>,
    /// Wall-clock seconds `TpccDb::load` took.
    pub load_s: f64,
    /// Rows loaded across all nine tables.
    pub rows: u64,
}

/// Loads a fresh database. The same `(scale, seed)` gives the same bytes.
pub fn load(scale: Scale, seed: u64) -> Loaded {
    let start = Instant::now();
    let db = TpccDb::load(scale.config(), seed).expect("TPC-C load");
    let load_s = start.elapsed().as_secs_f64();
    let rows = db.store.tables().iter().map(|t| t.row_count() as u64).sum();
    Loaded {
        db: Arc::new(db),
        load_s,
        rows,
    }
}

/// Which OLTP request stream a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMix {
    /// 50/50 payment/new-order over uniformly drawn home warehouses.
    UniformMix,
    /// Payments only, every one on warehouse 1.
    SkewedPayments,
}

/// An endless request stream of `mix` for `cfg`, deterministic per seed.
pub fn txn_stream(
    cfg: &TpccConfig,
    mix: TxnMix,
    seed: u64,
) -> Box<dyn Iterator<Item = TxnRequest>> {
    match mix {
        TxnMix::UniformMix => {
            let dist = HotSpot::uniform(cfg.warehouses as u64);
            let mut gen = MixGen::new(cfg.clone(), dist, 0.5, seed);
            Box::new(std::iter::from_fn(move || Some(gen.next())))
        }
        TxnMix::SkewedPayments => {
            let dist = HotSpot::single(cfg.warehouses as u64);
            let mut gen = PaymentGen::new(cfg.clone(), dist, seed);
            Box::new(std::iter::from_fn(move || {
                Some(TxnRequest::Payment(gen.next()))
            }))
        }
    }
}

/// The first `n` requests of [`txn_stream`], generated up front so an
/// open-loop phase spends its timed loop sending, not generating.
pub fn gen_txns(cfg: &TpccConfig, mix: TxnMix, n: usize, seed: u64) -> Vec<TxnRequest> {
    txn_stream(cfg, mix, seed).take(n).collect()
}

/// Q3 parameters of the windowed HTAP query stream: the shared "since
/// 2007" lower bound with four rotating year-end upper bounds, so a window
/// of concurrent queries carries genuinely different predicates. Mirrors
/// `engine.rs`'s private `windowed_q3_spec`, which `run_phase` uses for
/// its own OLAP driver.
pub fn windowed_q3_spec(qid: u64) -> Q3Spec {
    const YEAR_ENDS: [i64; 4] = [20081231, 20101231, 20121231, i64::MAX];
    Q3Spec {
        entry_date_max: YEAR_ENDS[(qid % 4) as usize],
        ..Q3Spec::default()
    }
}

/// The two query shapes `olap_remote` alternates: a selective window
/// (first quarter of 2007) and the open-ended CH-Q3 default.
pub fn remote_q3_spec(qid: u64) -> Q3Spec {
    if qid.is_multiple_of(2) {
        Q3Spec {
            entry_date_min: 20070101,
            entry_date_max: 20070331,
            ..Q3Spec::default()
        }
    } else {
        Q3Spec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let cfg = Scale::Default.config();
        let a = gen_txns(&cfg, TxnMix::UniformMix, 200, 9);
        assert_eq!(a, gen_txns(&cfg, TxnMix::UniformMix, 200, 9));
        assert_ne!(a, gen_txns(&cfg, TxnMix::UniformMix, 200, 10));
        let skew = gen_txns(&cfg, TxnMix::SkewedPayments, 50, 1);
        assert!(skew.iter().all(|r| r.w_id() == 1));
        assert!(a.iter().any(|r| matches!(r, TxnRequest::NewOrder(_))));
        assert!(a.iter().any(|r| matches!(r, TxnRequest::Payment(_))));
    }

    #[test]
    fn query_shapes_rotate() {
        assert_eq!(windowed_q3_spec(3), Q3Spec::default());
        assert_eq!(windowed_q3_spec(4).entry_date_max, 20081231);
        assert_eq!(remote_q3_spec(1), Q3Spec::default());
        assert_eq!(remote_q3_spec(0).entry_date_max, 20070331);
    }
}
