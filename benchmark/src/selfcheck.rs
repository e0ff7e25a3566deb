//! `--selfcheck`: the acceptance rule, run locally.
//!
//! Runs every workload's end-to-end suite as two sets of `runs` runs, each
//! run with another seed, and prints per workload × metric both medians,
//! how much worse the second is, each set's quartile spread, and the
//! bound. Passes only if every spread except `setup_s`'s stays within its
//! bound and no second median is worse than the first by more than it.
//!
//! Every run is a child process of this executable, as under the driver:
//! the memory high-water mark and the allocator's state belong to a
//! process, so runs sharing one would not be independent.

use std::path::Path;
use std::process::Command;

use crate::metrics::{EndToEnd, WorkloadDef, END_TO_END};
use crate::stats::{iqr_spread, median};
use crate::workloads::metric_from_json;

/// Seed distance between the two sets, so no run repeats an input.
const SET_STRIDE: u64 = 1000;

/// One metric's verdict on one workload.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// Medians of the two sets.
    pub medians: [f64; 2],
    /// Quartile spreads of the two sets (0 with fewer than two runs).
    pub spreads: [f64; 2],
    /// Share by which the second median is worse than the first.
    pub worsening: f64,
    /// Within the metric's bound on every count.
    pub ok: bool,
}

/// Judges two sets of values of one metric against its bound.
pub fn judge(metric: &EndToEnd, first: &[f64], second: &[f64]) -> Verdict {
    let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { iqr_spread(v) };
    let medians = [median(first), median(second)];
    let spreads = [spread(first), spread(second)];
    let worsening = metric.better.worsening(medians[0], medians[1]);
    let spread_ok = metric.name == "setup_s" || spreads.iter().all(|&s| s <= metric.bound);
    Verdict {
        medians,
        spreads,
        worsening,
        ok: spread_ok && worsening <= metric.bound,
    }
}

/// One end-to-end run in a child process; its metric values in manifest
/// order, or why there are none.
fn run_child(exe: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "exit {:?}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    END_TO_END
        .iter()
        .map(|m| metric_from_json(line, m.name).ok_or_else(|| format!("no {} in {line}", m.name)))
        .collect()
}

/// Runs the two sets over `workloads` and prints the table; `true` when
/// every pairing passed and every run was correct.
pub fn selfcheck(workloads: &[&'static WorkloadDef], seed: u64, seconds: f64, runs: usize) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median-1", "median-2", "worse", "iqr-1", "iqr-2", "bound"
    );
    for workload in workloads {
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for (set, values) in sets.iter_mut().enumerate() {
            for k in 0..runs as u64 {
                let run_seed = seed + set as u64 * SET_STRIDE + k;
                match run_child(&exe, workload.name, run_seed, seconds) {
                    Ok(metrics) => {
                        for (slot, value) in values.iter_mut().zip(metrics) {
                            slot.push(value);
                        }
                    }
                    Err(why) => {
                        all_ok = false;
                        eprintln!("{} seed {run_seed}: {why}", workload.name);
                    }
                }
            }
        }
        for (i, metric) in END_TO_END.iter().enumerate() {
            let v = judge(metric, &sets[0][i], &sets[1][i]);
            all_ok &= v.ok;
            println!(
                "{:<20} {:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                v.medians[0],
                v.medians[1],
                v.worsening * 100.0,
                v.spreads[0] * 100.0,
                v.spreads[1] * 100.0,
                metric.bound * 100.0,
                if v.ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    const LAT: EndToEnd = EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn steady_sets_pass_and_a_regressed_second_set_fails() {
        let first = [100.0, 101.0, 99.0, 100.5, 100.2];
        assert!(judge(&LAT, &first, &first).ok);
        let slower: Vec<f64> = first.iter().map(|v| v * 1.2).collect();
        let v = judge(&LAT, &first, &slower);
        assert!(!v.ok && (v.worsening - 0.2).abs() < 1e-9);
        // Getting faster is never a failure.
        assert!(judge(&LAT, &slower, &first).ok);
    }

    #[test]
    fn a_wide_spread_fails_except_for_setup() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert!(!judge(&LAT, &noisy, &noisy).ok);
        let setup = EndToEnd {
            name: "setup_s",
            ..LAT
        };
        assert!(judge(&setup, &noisy, &noisy).ok);
    }
}
