//! # anydb-common
//!
//! Foundational types shared by every crate of the AnyDB reproduction:
//!
//! * [`value`] — dynamically typed datums stored in tuples,
//! * [`schema`] — table schemas and column metadata,
//! * [`mod@tuple`] — row representation plus a compact binary wire
//!   encoding used by data streams,
//! * [`mod@column`] — columnar (struct-of-arrays) batches with pushdown
//!   predicates and a one-tag-per-column wire encoding for OLAP streams,
//! * [`rid`] — record identifiers (partition, slot),
//! * [`scan`] — the remote scan wire protocol: pushed-down scan requests
//!   and certified columnar replies,
//! * [`repl`] — WAL records and the replication wire protocol that ships
//!   them from a primary storage AC to its follower,
//! * [`commit`] — the two-phase-commit wire protocol that makes
//!   cross-shard transactions atomic over modeled links,
//! * [`wire`] — the one checked reader every decoder of those protocols
//!   goes through,
//! * [`ids`] — strongly typed identifiers used across the system,
//! * [`fxmap`] — FxHash-style fast hash maps for hot lookup paths,
//! * [`dist`] — Zipfian / hot-spot / NURand distributions for workloads,
//! * [`metrics`] — event counters, counter snapshots and throughput
//!   windows,
//! * [`error`] — the common error type.
//!
//! The crate is dependency-light on purpose: everything downstream (storage,
//! streams, transactions, the AnyDB core) builds on these definitions.

pub mod backoff;
pub mod column;
pub mod commit;
pub mod dist;
pub mod error;
pub mod fxmap;
pub mod ids;
pub mod metrics;
pub mod repl;
pub mod rid;
pub mod scan;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod wire;

pub use column::{bitmap_ones, ColPredicate, Column, ColumnBatch, ColumnStore};
pub use commit::{CommitMsg, PrepOp};
pub use error::{DbError, DbResult};
pub use ids::{AcId, PartitionId, QueryId, ServerId, TableId, TxnId};
pub use metrics::RobustSnapshot;
pub use repl::{LogOp, LogRecord, ReplMsg};
pub use rid::Rid;
pub use scan::{ScanError, ScanReply, ScanRequest, ScanSnapshot};
pub use schema::{ColumnDef, DataType, Schema};
pub use tuple::Tuple;
pub use value::Value;
