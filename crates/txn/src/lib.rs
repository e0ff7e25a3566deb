//! # anydb-txn
//!
//! Concurrency-control substrate shared by the static baseline
//! (`anydb-dbx1000`) and the architecture-less core (`anydb-core`):
//!
//! * [`lock`] — a sharded record lock manager with shared/exclusive modes
//!   and the classic no-wait and wait-die policies (what DBx1000 uses),
//! * [`sequencer`] — order stamps and admission gates for the paper's
//!   *streaming concurrency control* (§3.3): conflicting transactions are
//!   serialized by consistent event order, not by blocking synchronization,
//! * [`history`] — operation histories and a conflict-graph
//!   serializability checker used throughout the test suites,
//! * [`twopc`] — pure two-phase-commit coordinator state (vote
//!   collection, retransmission timers) driven by the shard node loop,
//! * [`ts`] — timestamp/transaction-id oracles.

pub mod history;
pub mod lock;
pub mod sequencer;
pub mod ts;
pub mod twopc;

pub use history::{History, Op};
pub use lock::{LockManager, LockMode, LockPolicy};
pub use sequencer::{OrderGate, SeqNo, Sequencer};
pub use ts::TxnIdGen;
pub use twopc::{CoordVotes, Retransmit};
