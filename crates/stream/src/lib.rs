//! # anydb-stream
//!
//! The streaming substrate of the AnyDB reproduction. The paper's execution
//! model instruments generic components (ACs) with an *event stream* and a
//! *data stream*; this crate provides the transport for both:
//!
//! * [`adaptive`] — depth-driven batch sizing: the feedback controller
//!   that turns the queues' depth mirrors into an online batch-size knob,
//! * [`spsc`] — a lock-free single-producer/single-consumer ring buffer,
//!   our stand-in for the Folly SPSC queue the paper uses for local
//!   shared-memory beaming (footnote 1 in §4),
//! * [`inbox`] — a multi-producer event inbox used as an AC's event queue,
//! * [`link`] — [`link::SimLink`]: an SPSC ring with a latency/bandwidth
//!   delivery model, simulating NUMA links, InfiniBand/DPI flows, and TCP,
//! * [`fault`] — deterministic, seed-driven fault injection for those
//!   links: drop windows, delay spikes, and permanent cuts,
//! * [`network`] — link classes and the simulated server topology,
//! * [`flow`] — DPI-style flows that filter/project `ColumnBatch`es
//!   *en route* (the "NIC as co-processor" effect of Figure 6), and the
//!   sender that ships column batches through them,
//! * [`remote`] — the scan wire protocol's two connection ends.
//!
//! Everything is non-blocking: receivers never wait for data — exactly the
//! execution model of §2.1.

pub mod adaptive;
pub mod fault;
pub mod flow;
pub mod inbox;
pub mod link;
pub mod network;
pub mod remote;
pub mod spsc;

pub use fault::{FaultAction, FaultSpec, FaultState, FaultStats};
pub use inbox::{Inbox, InboxSender};
pub use link::{DeadlineRecv, LinkReceiver, LinkSender, LinkSpec, RecvState, SimLink};
pub use network::{LinkClass, Topology};
pub use remote::{scan_connection, scan_connection_faulty, ScanRequester, ScanResponder};
pub use spsc::{spsc_channel, PopState, SpscConsumer, SpscProducer};
