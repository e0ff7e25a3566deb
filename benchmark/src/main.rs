//! Command line of the AnyDB benchmark.
//!
//! ```text
//! anydb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! anydb-benchmark --selfcheck [--runs <k>] [--workload <name>] [--seed <n>] [--seconds <s>]
//! anydb-benchmark --write-manifest
//! ```
//!
//! A workload run prints a readable metric table on standard error and,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! if every output check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use anydb_benchmark::metrics::{self, manifest_json, WorkloadDef, RUN_SECONDS, WORKLOADS};
use anydb_benchmark::selfcheck::selfcheck;
use anydb_benchmark::workloads::{run, RunConfig};

struct Args {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    selfcheck: bool,
    runs: usize,
    write_manifest: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: anydb-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--out-dir <dir>]\n       anydb-benchmark --selfcheck [--runs <k>] [--workload <name>] \
         [--seed <n>] [--seconds <s>]\n       anydb-benchmark --write-manifest",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        selfcheck: false,
        runs: 3,
        write_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    metrics::workload(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--write-manifest" => args.write_manifest = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.write_manifest {
        return match std::fs::write("BENCHMARK.json", manifest_json()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.selfcheck {
        let all: Vec<&'static WorkloadDef> = match args.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        };
        let ok = selfcheck(&all, args.seed, args.seconds, args.runs);
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let report = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out_dir,
    });
    eprintln!(
        "{} seed={} seconds={} trace={}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<40} {value:>16.4} {unit}");
    }
    for failure in &report.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    eprintln!(
        "  attempted={} failed={} correct={}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
