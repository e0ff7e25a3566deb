//! The baseline engine: a fixed pool of transaction-executor threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anydb_common::metrics::Counter;
use anydb_common::DbError;
use anydb_txn::history::History;
use anydb_txn::lock::{LockManager, LockPolicy};
use anydb_txn::ts::TxnIdGen;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::phases::{Phase, PhaseKind, PhaseSchedule};
use anydb_workload::tpcc::gen::{MixGen, TxnRequest};
use anydb_workload::tpcc::TpccDb;

use crate::olap::exec_q3;
use crate::txns::{exec_new_order, exec_payment, TxnCtx};

/// Configuration of the static baseline.
#[derive(Debug, Clone)]
pub struct Dbx1000Config {
    /// Number of transaction-executor threads (the "4TE"/"1TE" of Fig. 5).
    pub executors: u32,
    /// Lock conflict policy.
    pub policy: LockPolicy,
    /// Fraction of payment transactions in the mix (1.0 = payment-only,
    /// as in Figure 5).
    pub payment_fraction: f64,
}

impl Default for Dbx1000Config {
    fn default() -> Self {
        Self {
            executors: 4,
            policy: LockPolicy::WaitDie,
            payment_fraction: 0.5,
        }
    }
}

/// Result of one workload phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Completed transactions (including TPC-C user rollbacks).
    pub committed: u64,
    /// Concurrency-control aborts (wait-die / no-wait retries).
    pub cc_aborts: u64,
    /// OLAP queries completed during the phase.
    pub olap_queries: u64,
    /// Wall-clock phase duration.
    pub elapsed: Duration,
}

impl PhaseResult {
    /// OLTP throughput in transactions per second.
    pub fn tx_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

/// The DBx1000-style static shared-nothing baseline.
pub struct Dbx1000 {
    db: Arc<TpccDb>,
    locks: Arc<LockManager>,
    ids: Arc<TxnIdGen>,
    cfg: Dbx1000Config,
    history: Option<Arc<History>>,
}

impl Dbx1000 {
    /// Creates the engine over a loaded database.
    pub fn new(db: Arc<TpccDb>, cfg: Dbx1000Config) -> Self {
        Self {
            db,
            locks: Arc::new(LockManager::new()),
            ids: Arc::new(TxnIdGen::new()),
            cfg,
            history: None,
        }
    }

    /// Attaches an operation history (serializability tests).
    pub fn with_history(mut self, history: Arc<History>) -> Self {
        self.history = Some(history);
        self
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<TpccDb> {
        &self.db
    }

    /// Runs one phase for `duration`, returning throughput counters.
    ///
    /// The baseline is *statically partitioned* (shared-nothing): TE `i`
    /// owns the warehouses with `(w-1) % executors == i` and clients route
    /// requests to the owning TE. Under a partitionable load this scales
    /// linearly and conflict-free; under the skewed load (everything on
    /// warehouse 1) only the owning TE has work — exactly the paper's
    /// "DBx1000 is bound by the resources that are assigned to one
    /// partition" and why "4 TEs perform like a single TE" in Figure 5.
    /// Record locks stay on (the engine is lock-based like DBx1000), they
    /// are just conflict-free under partitioned routing.
    ///
    /// In HTAP phases exactly one TE at a time additionally executes the
    /// CH-Q3 query, round-robin — the paper's point that the static
    /// design shares transaction resources with analytics.
    pub fn run_phase(&self, kind: PhaseKind, duration: Duration, seed: u64) -> PhaseResult {
        let stop = AtomicBool::new(false);
        let committed = Counter::new();
        let cc_aborts = Counter::new();
        let olap_done = Counter::new();
        let olap_turn = AtomicU64::new(0);
        let started = Instant::now();

        std::thread::scope(|scope| {
            for te in 0..self.cfg.executors {
                let stop = &stop;
                let committed = &committed;
                let cc_aborts = &cc_aborts;
                let olap_done = &olap_done;
                let olap_turn = &olap_turn;
                let db = &self.db;
                let locks = &self.locks;
                let ids = &self.ids;
                let history = self.history.as_deref();
                let cfg = &self.cfg;
                scope.spawn(move || {
                    let mut gen = MixGen::new(
                        db.cfg.clone(),
                        kind.warehouse_dist(db.cfg.warehouses),
                        cfg.payment_fraction,
                        seed ^ (te as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    let ctx = TxnCtx {
                        db,
                        locks,
                        policy: cfg.policy,
                        history,
                    };
                    let q3 = Q3Spec::default();
                    let executors = cfg.executors as i64;
                    let owns = |w: i64| ((w - 1).rem_euclid(executors)) as u32 == te;
                    let mut idle = anydb_common::backoff::Backoff::new();
                    while !stop.load(Ordering::Relaxed) {
                        // HTAP: take the OLAP token if it is this TE's turn.
                        if kind.has_olap() {
                            let turn = olap_turn.load(Ordering::Relaxed);
                            if turn % cfg.executors as u64 == te as u64
                                && olap_turn
                                    .compare_exchange(
                                        turn,
                                        turn + 1,
                                        Ordering::AcqRel,
                                        Ordering::Relaxed,
                                    )
                                    .is_ok()
                            {
                                exec_q3(db, &q3);
                                olap_done.incr();
                                continue;
                            }
                        }
                        // Static partitioning: sample the home warehouse
                        // first (cheap); foreign requests are handled by
                        // their owning TE, so this TE is *idle* for them
                        // and must park rather than burn a core.
                        let w = gen.next_warehouse();
                        if !owns(w) {
                            idle.wait();
                            continue;
                        }
                        idle.reset();
                        let request = gen.next_for_warehouse(w);
                        // Retry CC aborts until commit (fresh, younger id
                        // each time, as wait-die requires).
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let txn = ids.next();
                            let result = match &request {
                                TxnRequest::Payment(p) => exec_payment(&ctx, txn, p),
                                TxnRequest::NewOrder(n) => exec_new_order(&ctx, txn, n),
                            };
                            match result {
                                Ok(()) => {
                                    committed.incr();
                                    break;
                                }
                                Err(e) if e.is_retryable() => {
                                    // User rollbacks are deterministic:
                                    // completed business outcome, no retry.
                                    if let TxnRequest::NewOrder(n) = &request {
                                        if n.rollback {
                                            committed.incr();
                                            break;
                                        }
                                    }
                                    cc_aborts.incr();
                                }
                                Err(e) => panic!("unexpected execution error: {e}"),
                            }
                        }
                    }
                });
            }
            // Timer thread: stop everyone after `duration`.
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        });

        PhaseResult {
            committed: committed.get(),
            cc_aborts: cc_aborts.get(),
            olap_queries: olap_done.get(),
            elapsed: started.elapsed(),
        }
    }

    /// Runs a full schedule, one result per phase.
    pub fn run_schedule(
        &self,
        schedule: &PhaseSchedule,
        phase_duration: Duration,
        seed: u64,
    ) -> Vec<(Phase, PhaseResult)> {
        schedule
            .phases()
            .iter()
            .map(|phase| {
                (
                    *phase,
                    self.run_phase(phase.kind, phase_duration, seed ^ phase.index as u64),
                )
            })
            .collect()
    }
}

/// Returns `Err` variants the engine treats as fatal, for tests.
pub fn is_fatal(e: &DbError) -> bool {
    !e.is_retryable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_workload::tpcc::TpccConfig;

    fn engine(executors: u32) -> Dbx1000 {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 5).unwrap());
        Dbx1000::new(
            db,
            Dbx1000Config {
                executors,
                payment_fraction: 1.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn partitionable_phase_commits_transactions() {
        let e = engine(2);
        let r = e.run_phase(PhaseKind::OltpPartitionable, Duration::from_millis(100), 1);
        assert!(r.committed > 100, "committed = {}", r.committed);
        assert_eq!(r.olap_queries, 0);
        assert!(r.tx_per_sec() > 0.0);
    }

    #[test]
    fn skewed_phase_still_makes_progress() {
        let e = engine(4);
        let r = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(100), 2);
        assert!(r.committed > 50, "committed = {}", r.committed);
    }

    #[test]
    fn htap_phase_runs_olap_on_tes() {
        let e = engine(2);
        let r = e.run_phase(PhaseKind::HtapSkewed, Duration::from_millis(150), 3);
        assert!(r.olap_queries > 0, "no OLAP queries completed");
        assert!(r.committed > 0);
    }

    #[test]
    fn skew_hurts_throughput_vs_partitionable() {
        // The core Figure 5 behavior: N TEs under full skew commit far
        // fewer transactions than under a partitionable load. Needs one
        // warehouse per TE so the partitionable case is conflict-free.
        let cfg = TpccConfig {
            warehouses: 4,
            ..TpccConfig::small()
        };
        let db = Arc::new(TpccDb::load(cfg, 5).unwrap());
        let e = Dbx1000::new(
            db,
            Dbx1000Config {
                executors: 4,
                payment_fraction: 1.0,
                ..Default::default()
            },
        );
        // Wall-clock throughput: on a small host the tests running beside
        // this one can starve either phase, so the gap must show in one of
        // three measured pairs, not necessarily the first.
        let mut pairs = Vec::new();
        for _ in 0..3 {
            let uniform = e.run_phase(PhaseKind::OltpPartitionable, Duration::from_millis(300), 4);
            let skewed = e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(300), 5);
            if skewed.tx_per_sec() < uniform.tx_per_sec() * 0.9 {
                return;
            }
            pairs.push((skewed.tx_per_sec(), uniform.tx_per_sec()));
        }
        panic!("skew never hurt throughput: (skew, uniform) = {pairs:?}");
    }

    #[test]
    fn schedule_produces_one_result_per_phase() {
        let e = engine(2);
        let results = e.run_schedule(&PhaseSchedule::figure5(), Duration::from_millis(30), 7);
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|(_, r)| r.committed > 0));
    }

    #[test]
    fn histories_from_concurrent_phase_are_serializable() {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 6).unwrap());
        let hist = Arc::new(History::new());
        let e = Dbx1000::new(
            db,
            Dbx1000Config {
                executors: 4,
                payment_fraction: 1.0,
                ..Default::default()
            },
        )
        .with_history(hist.clone());
        e.run_phase(PhaseKind::OltpSkewed, Duration::from_millis(100), 8);
        assert!(hist.is_serializable());
    }
}
