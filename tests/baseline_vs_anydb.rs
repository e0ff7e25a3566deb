//! Integration: the baseline and AnyDB execute the same logical workload
//! with equivalent effects, and the figure-level orderings hold.

use std::sync::Arc;
use std::time::Duration;

use anydb::core::{AnyDbEngine, EngineConfig, Strategy};
use anydb::dbx1000::{Dbx1000, Dbx1000Config};
use anydb::sim::{figure1_series, figure5_series};
use anydb::workload::chbench::Q3Spec;
use anydb::workload::phases::PhaseKind;
use anydb::workload::tpcc::{TpccConfig, TpccDb};

#[test]
fn both_systems_answer_q3_identically() {
    // Seed 302: under the workspace's deterministic RNG, seed 301 happens
    // to load zero open A-state orders at small scale, which would make
    // the `a > 0` assertion below vacuous-fail for reasons unrelated to
    // the engines being compared.
    let db = Arc::new(TpccDb::load(TpccConfig::small(), 302).unwrap());
    // The open-ended default window and a bounded one (which the columnar
    // scans push down as a range).
    let windowed = Q3Spec {
        entry_date_max: 20091231,
        ..Q3Spec::default()
    };
    for spec in [Q3Spec::default(), windowed] {
        let a = anydb::dbx1000::exec_q3(&db, &spec);
        let b = anydb::core::olap::exec_q3_local(&db, &spec);
        assert_eq!(a, b, "{spec:?}");
        assert!(a > 0, "{spec:?}");
    }
}

#[test]
fn both_systems_make_progress_on_every_phase_kind() {
    for kind in [
        PhaseKind::OltpPartitionable,
        PhaseKind::OltpSkewed,
        PhaseKind::HtapSkewed,
        PhaseKind::HtapPartitionable,
    ] {
        let db = Arc::new(TpccDb::load(TpccConfig::small(), 302).unwrap());
        let baseline = Dbx1000::new(
            db,
            Dbx1000Config {
                executors: 2,
                payment_fraction: 1.0,
                ..Default::default()
            },
        );
        let r = baseline.run_phase(kind, Duration::from_millis(80), 1);
        assert!(r.committed > 0, "baseline stalled on {kind:?}");
        if kind.has_olap() {
            assert!(r.olap_queries > 0, "baseline ran no OLAP on {kind:?}");
        }

        let db = Arc::new(TpccDb::load(TpccConfig::small(), 303).unwrap());
        let engine = AnyDbEngine::new(
            db,
            EngineConfig {
                strategy: Strategy::SharedNothing,
                acs: 2,
                ..Default::default()
            },
        );
        let r = engine.run_phase(kind, Duration::from_millis(80), 1);
        assert!(r.committed > 0, "AnyDB stalled on {kind:?}");
        if kind.has_olap() {
            assert!(r.olap_queries > 0, "AnyDB ran no OLAP on {kind:?}");
        }
    }
}

#[test]
fn figure1_ordering_holds_in_simulation() {
    let (anydb, dbx) = figure1_series(4, Duration::from_millis(30), 304);
    // AnyDB ≥ baseline in every phase; strictly better under skew & HTAP.
    for (a, d) in anydb.iter().zip(&dbx) {
        assert!(a.mtps >= d.mtps * 0.95, "phase {}", a.phase);
    }
    assert!(anydb[4].mtps > dbx[4].mtps * 1.8, "skew advantage missing");
    assert!(
        anydb[10].mtps > dbx[10].mtps * 1.2,
        "HTAP isolation missing"
    );
}

#[test]
fn figure5_ordering_holds_in_simulation() {
    let series = figure5_series(4, Duration::from_millis(30), 305);
    let at = |label: &str, phase: usize| {
        series
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, p)| p[phase].mtps)
            .unwrap()
    };
    // Contended phase: the paper's ordering.
    assert!(at("DBx1000 4TE", 4) <= at("DBx1000 1TE", 4) * 1.2);
    assert!(at("DBx1000 4TE", 4) < at("AnyDB Static Intra-Txn", 4));
    assert!(at("AnyDB Static Intra-Txn", 4) < at("AnyDB Precise Intra-Txn", 4));
    assert!(at("AnyDB Precise Intra-Txn", 4) < at("AnyDB Streaming CC", 4));
    // Partitionable phase: shared-nothing wins, as in the paper.
    assert!(at("AnyDB Shared-Nothing", 0) >= at("AnyDB Streaming CC", 0));
}
