//! Smoke test: every workload at 1/50 scale, untraced and traced, must be
//! correct and emit exactly the metrics the manifest names.

use std::path::PathBuf;

use anydb_benchmark::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use anydb_benchmark::workloads::{run, RunConfig};

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_out")
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in &WORKLOADS {
        let report = run(&RunConfig {
            workload,
            seed: 42,
            seconds: RUN_SECONDS as f64 / 50.0,
            trace: false,
            out_dir: out_dir(),
        });
        assert!(report.correct, "{}: {:?}", workload.name, report.failures);
        assert!(report.attempted > 0 && report.failed == 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", workload.name);
        for (name, value, _) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value} (end-to-end metrics are never 0)",
                workload.name
            );
        }
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!json.contains('\n'));
    }
}

#[test]
fn every_traced_run_emits_every_layer_metric_and_a_span_file() {
    for workload in &WORKLOADS {
        let report = run(&RunConfig {
            workload,
            seed: 43,
            seconds: RUN_SECONDS as f64 / 50.0,
            trace: true,
            out_dir: out_dir(),
        });
        assert!(report.correct, "{}: {:?}", workload.name, report.failures);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", workload.name);
        assert!(report.metrics.iter().all(|m| m.1.is_finite()));

        let spans = report.value("trace.spans").unwrap() as usize;
        let path = out_dir().join(format!("trace_{}.jsonl", workload.name));
        let text = std::fs::read_to_string(&path).expect("span file written");
        assert_eq!(text.lines().count(), spans, "{}", workload.name);
        assert!(spans > 10, "{}: only {spans} spans", workload.name);
        for line in text.lines() {
            assert!(
                line.starts_with("{\"id\":") && line.ends_with('}'),
                "{line}"
            );
            assert!(line.contains("\"parent\":") && line.contains("\"req\":"));
            assert!(line.contains("\"start_ns\":") && line.contains("\"end_ns\":"));
        }
        // Service time alone cannot keep the workers more than fully busy.
        let busy = report.value("core.component.busy_frac").unwrap();
        assert!(
            (0.0..=1.0).contains(&busy),
            "{}: busy {busy}",
            workload.name
        );
    }
}
