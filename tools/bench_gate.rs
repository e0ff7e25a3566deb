//! CI bench regression gate.
//!
//! Compares the JSONs emitted by the gated ablations — `abl_adaptive`
//! (`BENCH_adaptive.json`, transport level), `abl_routing`
//! (`BENCH_routing.json`, engine level), `abl_columnar`
//! (`BENCH_columnar.json`, OLAP stream level: the deterministic row vs
//! columnar wire bytes of the Q3 streams), `abl_htap`
//! (`BENCH_htap.json`, HTAP-local level: shared-snapshot columnar Q3 +
//! the zero-copy split flatness ceiling), `abl_shared`
//! (`BENCH_shared.json`, multi-query level: shared-pipeline cost
//! scaling at N=32 concurrent Q3 members), `abl_pushdown`
//! (`BENCH_pushdown.json`, remote-scan level: predicate pushdown vs
//! ship-then-filter on modeled wire bytes), `abl_failover`
//! (`BENCH_failover.json`, replication level: sync/async/unreplicated
//! commit-ack throughput plus the zero-lost-acked-commits invariant
//! under a mid-load primary crash) and `abl_shard`
//! (`BENCH_shard.json`, sharding level: multi-node scale-out, the
//! single-shard vs sync-2PC cost split, and the zero-lost-acked-orders
//! invariant under a mid-2PC coordinator crash) and `abl_morph`
//! (`BENCH_morph.json`, adaptivity level: the morphing engine vs every
//! static strategy over the day-in-the-life schedule, in deterministic
//! virtual time) — against the checked-in
//! baseline (`tools/bench_baseline.json`) and exits non-zero on
//! regression, so the batching/routing/columnar/sharing/pushdown/
//! replication/sharding wins cannot silently rot. Every bench emits the same flat schema (gated
//! `ratio_*` keys plus ungated raw values, no per-file exceptions), and
//! all current files are merged into one metric map before checking
//! (their key namespaces are disjoint by construction).
//!
//! The baseline deliberately pins only **ratio** metrics: absolute
//! events/sec vary with the CI host, ratios between two modes measured
//! in the same run do not. Absolute metrics in the current JSONs are
//! reported but not gated. The baseline values are the *acceptance
//! floors* the PRs committed to (e.g. batched >= 1.5x unbatched, row
//! streams >= 2x the columnar wire bytes) — not last-measured ratios —
//! so an improvement to one mode can never trip the gate on the ratio it
//! appears under; each bench's header comment records its observed
//! run-to-run variance and why its floor sits where it does.
//!
//! Rules, per baseline key:
//! * key contains `latency`  → lower is better: fail if
//!   `current > baseline * (1 + TOLERANCE)`.
//! * otherwise               → higher is better: fail if
//!   `current < baseline * (1 - TOLERANCE)`.
//! * key missing from every current JSON → fail (a silently dropped
//!   metric is a regression of the gate itself).
//!
//! Usage: `bench_gate [baseline.json] [current.json ...]` (defaults:
//! `tools/bench_baseline.json` and the nine `BENCH_*.json` files — the
//! paths CI uses from the repo root).
//!
//! When `$GITHUB_STEP_SUMMARY` is set (as it is on every GitHub Actions
//! step), the gate additionally appends its verdict as a markdown table
//! — metric, baseline, current, current/baseline ratio, PASS/FAIL — so
//! a failed run explains itself on the job's summary page without
//! digging through logs.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Allowed relative regression before the gate trips.
const TOLERANCE: f64 = 0.15;

/// Parses the flat `{"key": number, ...}` JSON both the bench and the
/// baseline use. Not a general JSON parser on purpose: nesting or
/// non-numeric values are a format error worth failing loudly on.
fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected a top-level JSON object")?;
    let mut out = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry: {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key: {key:?}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number for {key:?}: {e}"))?;
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn lower_is_better(key: &str) -> bool {
    key.contains("latency")
}

/// Checks every baseline metric; returns human-readable failures.
fn check(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, base) in baseline {
        let Some(cur) = current.get(key) else {
            failures.push(format!("{key}: missing from current results"));
            continue;
        };
        if lower_is_better(key) {
            let ceiling = base * (1.0 + TOLERANCE);
            if *cur > ceiling {
                failures.push(format!(
                    "{key}: {cur:.4} exceeds ceiling {ceiling:.4} (baseline {base:.4})"
                ));
            }
        } else {
            let floor = base * (1.0 - TOLERANCE);
            if *cur < floor {
                failures.push(format!(
                    "{key}: {cur:.4} below floor {floor:.4} (baseline {base:.4})"
                ));
            }
        }
    }
    failures
}

/// Renders the gate's full verdict as a GitHub-flavored markdown table.
/// One row per baseline metric, in baseline order: the committed floor
/// (or ceiling for latency keys), the measured value, their ratio, and
/// the same PASS/FAIL decision [`check`] makes. Missing metrics FAIL
/// with an em-dash instead of a number, mirroring the gate rule.
fn render_summary_table(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> String {
    let mut out = String::from(
        "### Bench regression gate\n\n\
         | metric | baseline | current | current/baseline | verdict |\n\
         |---|---:|---:|---:|---|\n",
    );
    for (key, base) in baseline {
        let bound = if lower_is_better(key) {
            "ceiling"
        } else {
            "floor"
        };
        match current.get(key) {
            Some(cur) => {
                let pass = if lower_is_better(key) {
                    *cur <= base * (1.0 + TOLERANCE)
                } else {
                    *cur >= base * (1.0 - TOLERANCE)
                };
                let verdict = if pass { "PASS" } else { "**FAIL**" };
                out.push_str(&format!(
                    "| `{key}` | {base:.4} ({bound}) | {cur:.4} | {:.2}x | {verdict} |\n",
                    cur / base
                ));
            }
            None => out.push_str(&format!(
                "| `{key}` | {base:.4} ({bound}) | — | — | **FAIL** (missing) |\n"
            )),
        }
    }
    out.push_str(&format!(
        "\n{} gated metrics, ±{:.0}% tolerance.\n",
        baseline.len(),
        TOLERANCE * 100.0
    ));
    out
}

/// Appends the markdown verdict to the file `$GITHUB_STEP_SUMMARY`
/// names, when CI provides one. Best-effort: a summary that cannot be
/// written must never change the gate's exit code.
fn write_step_summary(table: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(table.as_bytes());
        }
        Err(err) => eprintln!("bench_gate: cannot append step summary to {path}: {err}"),
    }
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The bench-emitted files gated by default (all namespaces disjoint).
const DEFAULT_CURRENT: [&str; 9] = [
    "BENCH_adaptive.json",
    "BENCH_routing.json",
    "BENCH_columnar.json",
    "BENCH_htap.json",
    "BENCH_shared.json",
    "BENCH_pushdown.json",
    "BENCH_failover.json",
    "BENCH_shard.json",
    "BENCH_morph.json",
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .unwrap_or_else(|| "tools/bench_baseline.json".into());
    let mut current_paths: Vec<String> = args.collect();
    if current_paths.is_empty() {
        current_paths = DEFAULT_CURRENT.iter().map(|s| s.to_string()).collect();
    }

    let baseline = match load(&baseline_path) {
        Ok(b) => b,
        Err(err) => {
            eprintln!("bench_gate: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut current = BTreeMap::new();
    let mut failed = false;
    for path in &current_paths {
        match load(path) {
            Ok(map) => current.extend(map),
            Err(err) => {
                eprintln!("bench_gate: {err}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }

    println!(
        "bench_gate: {} vs baseline {}",
        current_paths.join(" + "),
        baseline_path
    );
    for (key, base) in &baseline {
        let cur = current.get(key).copied();
        println!(
            "  {key}: current {} / baseline {base:.4}",
            cur.map_or("<missing>".into(), |v| format!("{v:.4}"))
        );
    }

    let failures = check(&baseline, &current);
    write_step_summary(&render_summary_table(&baseline, &current));
    if failures.is_empty() {
        println!(
            "bench_gate: OK ({} gated metrics within {:.0}% of baseline)",
            baseline.len(),
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_gate: REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parses_the_bench_emitter_format() {
        let text = "{\n  \"a_mev_s\": 12.5,\n  \"ratio_b\": 0.9700\n}\n";
        let parsed = parse_flat_json(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["a_mev_s"], 12.5);
        assert_eq!(parsed["ratio_b"], 0.97);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{\"k\": \"text\"}").is_err());
        assert!(parse_flat_json("{k: 1}").is_err());
    }

    #[test]
    fn passes_within_tolerance() {
        let base = map(&[("ratio_x", 1.0)]);
        let cur = map(&[("ratio_x", 0.90)]);
        assert!(check(&base, &cur).is_empty());
    }

    #[test]
    fn fails_beyond_tolerance() {
        let base = map(&[("ratio_x", 1.0)]);
        let cur = map(&[("ratio_x", 0.80)]);
        assert_eq!(check(&base, &cur).len(), 1);
    }

    #[test]
    fn latency_keys_gate_upward() {
        let base = map(&[("ratio_idle_latency_a_vs_b", 0.15)]);
        let ok = map(&[("ratio_idle_latency_a_vs_b", 0.05)]);
        assert!(check(&base, &ok).is_empty());
        let bad = map(&[("ratio_idle_latency_a_vs_b", 0.50)]);
        assert_eq!(check(&base, &bad).len(), 1);
    }

    #[test]
    fn missing_metric_fails() {
        let base = map(&[("ratio_x", 1.0)]);
        let cur = map(&[("ratio_y", 1.0)]);
        assert_eq!(check(&base, &cur).len(), 1);
    }

    #[test]
    fn extra_current_metrics_are_ignored() {
        let base = map(&[("ratio_x", 1.0)]);
        let cur = map(&[("ratio_x", 1.0), ("spsc_static1_mev_s", 74.0)]);
        assert!(check(&base, &cur).is_empty());
    }

    #[test]
    fn summary_table_mirrors_the_gate_verdicts() {
        let base = map(&[
            ("ratio_ok", 2.0),
            ("ratio_bad", 4.0),
            ("ratio_idle_latency_x", 0.2),
        ]);
        let cur = map(&[
            ("ratio_ok", 2.1),
            ("ratio_bad", 1.0),
            ("ratio_idle_latency_x", 0.9),
        ]);
        let table = render_summary_table(&base, &cur);
        // One markdown row per gated metric, header included.
        assert_eq!(table.matches("\n| `ratio_").count(), 3);
        assert!(table.contains("| `ratio_ok` | 2.0000 (floor) | 2.1000 | 1.05x | PASS |"));
        assert!(table.contains("| `ratio_bad` | 4.0000 (floor) | 1.0000 | 0.25x | **FAIL** |"));
        // Latency keys gate as ceilings, and gate upward.
        assert!(table
            .contains("| `ratio_idle_latency_x` | 0.2000 (ceiling) | 0.9000 | 4.50x | **FAIL** |"));
        assert!(table.contains("3 gated metrics"));
        // The table and check() must never disagree on pass/fail counts.
        assert_eq!(table.matches("**FAIL**").count(), check(&base, &cur).len());
    }

    #[test]
    fn summary_table_flags_missing_metrics() {
        let base = map(&[("ratio_x", 1.0)]);
        let table = render_summary_table(&base, &BTreeMap::new());
        assert!(table.contains("| `ratio_x` | 1.0000 (floor) | — | — | **FAIL** (missing) |"));
    }
}
