//! # anydb-benchmark — the repository's benchmark
//!
//! One command runs one of four named workloads against the AnyDB
//! reproduction, checks the program's outputs, and prints either the
//! end-to-end metrics a user of the system would see (`--trace 0`) or the
//! per-layer metrics that say where the time goes (`--trace 1`). See
//! `README.md` in this directory for the names, what moves what, and how
//! to add a workload.
//!
//! * [`metrics`] — the contract: names, units, directions, bounds;
//! * [`workloads`] — how each workload spends its measured seconds;
//! * [`drive`] — the open/closed-loop generator feeding AnyComponents;
//! * [`remote`] — the disaggregated Q3 loop over the scan wire protocol;
//! * [`probes`] — single-thread cost of one call into each layer;
//! * [`check`] — output checks wired to the result line and exit code;
//! * [`trace`] — bench-side spans around every call into a layer;
//! * [`stats`] — exact-sample percentiles and the spread rule;
//! * [`selfcheck`] — two sets of runs compared against the bounds;
//! * [`data`], [`sys`] — seeded inputs; `/proc` accounting.
//!
//! The benchmark times the program only through its crates' public
//! functions; nothing outside this directory changes to define it.

pub mod check;
pub mod data;
pub mod drive;
pub mod metrics;
pub mod probes;
pub mod remote;
pub mod selfcheck;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
