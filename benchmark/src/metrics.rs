//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds.
//!
//! This table is the single source of `BENCHMARK.json` (rendered by
//! [`manifest_json`], written by `--write-manifest`, and compared against
//! the checked-in file by a unit test), of the result line every run
//! prints, and of `--selfcheck`'s bounds.

/// Measured values by metric name, before they are put in manifest order.
pub type Values = std::collections::BTreeMap<&'static str, f64>;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, memory).
    Lower,
    /// Larger is better (rates, hit fractions).
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `second` is than `first`, as a share of `first`
    /// (negative when it improved).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        if first == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (second - first) / first.abs(),
            Better::Higher => (first - second) / first.abs(),
        }
    }
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of a single layer (`crate.module.what`); unbounded.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 20;

/// The four workloads, in Figure-1 order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "oltp_partitionable",
        why: "uniform 50/50 payment/new-order, shared-nothing: inbox, whole-txn dispatch, point updates and insert growth work; sequencer, decomposition, scans and codecs do nothing",
    },
    WorkloadDef {
        name: "oltp_skewed",
        why: "payments on one warehouse under streaming CC: op groups, order gates, parking, trackers and done batching dominate; new-order, storage growth and scans vanish",
    },
    WorkloadDef {
        name: "htap_q3",
        why: "windowed CH-Q3 beside 10k tx/s writers: mirror locks, snapshot scans, a scan cache the writes invalidate, shared execution; the write latency is the OLTP-isolation claim",
    },
    WorkloadDef {
        name: "olap_remote",
        why: "read-only disaggregated Q3 over the scan wire protocol: scan, encode, link, decode, join with no AC engine on the path; codec and pushdown work shows only here",
    },
];

/// End-to-end metrics. Every workload reports every one of them; what
/// each means per workload is in `benchmark/README.md`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, reported by the traced run only.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("workload.load_rows_per_s", "1/s", Better::Higher),
    layer("workload.gen_ns_per_txn", "ns", Better::Lower),
    layer("stream.inbox.send_drain_ns", "ns", Better::Lower),
    layer("stream.spsc.push_pop_ns", "ns", Better::Lower),
    layer("stream.link.frames_per_query", "count", Better::Lower),
    layer("stream.link.wire_bytes_per_query", "B", Better::Lower),
    layer("stream.link.modeled_ms_per_query", "ms", Better::Lower),
    layer("txn.sequencer.stamp_ns", "ns", Better::Lower),
    layer("storage.table.get_rid_ns", "ns", Better::Lower),
    layer("storage.table.update_ns", "ns", Better::Lower),
    layer("storage.table.insert_ns", "ns", Better::Lower),
    layer("storage.table.insert_max_us", "us", Better::Lower),
    layer("storage.scan.rows_per_us", "1/us", Better::Higher),
    layer("storage.scan_cache.hit_frac_quiet", "frac", Better::Higher),
    layer("storage.scan_cache.hit_frac_mixed", "frac", Better::Higher),
    layer(
        "storage.scan_cache.miss_rows_per_query",
        "count",
        Better::Lower,
    ),
    layer("storage.serve_scan.us_per_krow", "us", Better::Lower),
    layer("common.column.encode_mb_per_s", "MB/s", Better::Higher),
    layer("common.column.decode_mb_per_s", "MB/s", Better::Higher),
    layer("common.column.select_rows_per_us", "1/us", Better::Higher),
    layer("common.scan.request_bytes", "B", Better::Lower),
    layer("core.ops.payment_ns", "ns", Better::Lower),
    layer("core.ops.neworder_ns", "ns", Better::Lower),
    layer("core.ops.op_group_ns", "ns", Better::Lower),
    layer("core.strategy.decompose_ns", "ns", Better::Lower),
    layer("core.component.idle_rtt_us", "us", Better::Lower),
    layer("core.component.busy_frac", "frac", Better::Lower),
    layer("core.event.done_batch_size", "count", Better::Higher),
    layer("core.overhead_us_per_op", "us", Better::Lower),
    layer("core.engine.driver_overhead_frac", "frac", Better::Lower),
    layer("core.olap.q3_local_cold_ms", "ms", Better::Lower),
    layer("core.olap.q3_local_warm_ms", "ms", Better::Lower),
    layer("core.olap.q3_shared8_ms", "ms", Better::Lower),
    layer("core.olap.shared_ratio", "ratio", Better::Lower),
    layer("core.olap.q3_quiet_p50_ms", "ms", Better::Lower),
    layer("core.olap.q3_mixed_p50_ms", "ms", Better::Lower),
    layer("core.olap.q3_mixed_p99_ms", "ms", Better::Lower),
    layer("core.olap.wire_join_ms", "ms", Better::Lower),
    layer("core.olap.remote_sel_p50_ms", "ms", Better::Lower),
    layer("core.olap.remote_open_p50_ms", "ms", Better::Lower),
    layer("gen.late_p99_us", "us", Better::Lower),
    layer("gen.achieved_rate_frac", "frac", Better::Higher),
    layer("gen.slo_miss_frac", "frac", Better::Lower),
    layer("gen.lat_p99_us", "us", Better::Lower),
    layer("gen.lat_samples", "count", Better::Higher),
    layer("gen.lat_tail_pct", "%", Better::Higher),
    layer("gen.lat_tail_us", "us", Better::Lower),
    layer("trace.overhead_frac", "frac", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `--write-manifest`"
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
