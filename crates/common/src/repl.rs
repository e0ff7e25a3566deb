//! The replication wire protocol: WAL records and the messages that ship
//! them between a primary storage AC and its follower (DESIGN.md §9).
//!
//! [`LogOp`] and [`LogRecord`] live here — not in the storage crate —
//! because PR 8 makes log records *messages*: a primary streams them over
//! a modeled link exactly like scan requests and replies travel in
//! [`crate::scan`]. The storage crate re-exports them and keeps the
//! in-memory `Wal` container; this module owns only what crosses a wire.
//!
//! Four messages, tagged outside both the scan range (0xA1..=0xA3) and
//! every payload codec's tag space so mixed links can dispatch:
//!
//! * [`ReplMsg::Records`] — a batch of contiguous log records (whole
//!   committed transactions; the primary ships per drain chunk),
//! * [`ReplMsg::Ack`] — the follower's cumulative applied-LSN watermark,
//! * [`ReplMsg::Heartbeat`] — primary liveness under a lease, carrying
//!   its term and log tip,
//! * [`ReplMsg::CatchupFrom`] — "ship me your tail from this LSN": sent
//!   by a (re)joining follower, and by a live follower that detects an
//!   LSN gap (a dropped batch on a lossy link) — retransmission *is* the
//!   catch-up path, there is no separate repair protocol.
//!
//! Decoding follows the wire contract of [`crate::wire`]: a torn or
//! corrupt frame off a faulty link is a [`DbError::Codec`], never a
//! panic of the follower.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::commit::{decode_prep_ops_from, encode_prep_ops_into, PrepOp};
use crate::error::{DbError, DbResult};
use crate::ids::{PartitionId, TableId, TxnId};
use crate::rid::Rid;
use crate::tuple::Tuple;
use crate::wire::{self, WireRead};

/// Message tag of an encoded [`ReplMsg::Records`].
pub const MSG_REPL_RECORDS: u8 = 0xB1;
/// Message tag of an encoded [`ReplMsg::Ack`].
pub const MSG_REPL_ACK: u8 = 0xB2;
/// Message tag of an encoded [`ReplMsg::Heartbeat`].
pub const MSG_REPL_HEARTBEAT: u8 = 0xB3;
/// Message tag of an encoded [`ReplMsg::CatchupFrom`].
pub const MSG_REPL_CATCHUP: u8 = 0xB4;

/// Op tag: insert.
const OP_INSERT: u8 = 0;
/// Op tag: update.
const OP_UPDATE: u8 = 1;
/// Op tag: commit.
const OP_COMMIT: u8 = 2;
/// Op tag: abort.
const OP_ABORT: u8 = 3;
/// Op tag: 2PC prepare (staged cross-shard writes).
const OP_PREPARE: u8 = 4;
/// Op tag: 2PC decision.
const OP_DECIDE: u8 = 5;

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// A new row was appended. The RID is logged so replay can verify it
    /// reproduces identical physical placement.
    Insert {
        /// Table inserted into.
        table: TableId,
        /// Partition the row went to.
        partition: PartitionId,
        /// Slot the row landed in.
        slot: u32,
        /// The full row image.
        tuple: Tuple,
    },
    /// A row was overwritten; `after` is the full after-image (physical
    /// redo logging — simple and idempotent).
    Update {
        /// The updated record.
        rid: Rid,
        /// Full after-image.
        after: Tuple,
    },
    /// Transaction committed; its earlier records become redo-able.
    Commit,
    /// Transaction aborted; its earlier records are ignored by replay.
    Abort,
    /// A cross-shard transaction's writes are staged (2PC phase one).
    /// Logged by every participant before it votes yes, and by the
    /// coordinator before it solicits votes, so staged state survives a
    /// crash: recovery finds Prepare records without a matching
    /// [`LogOp::Decide`] and re-asks `coord` for the outcome
    /// (presumed-abort if the coordinator never logged a decision).
    Prepare {
        /// The coordinating shard node, for in-doubt recovery queries.
        coord: u32,
        /// The staged writes, replayable on decide-commit.
        ops: Vec<PrepOp>,
    },
    /// The 2PC outcome for a staged transaction. On the coordinator,
    /// `parts` lists the remote participants the decision still must
    /// reach (re-delivery set after a coordinator crash); participants
    /// log it with an empty `parts`.
    Decide {
        /// `true` = commit the staged writes, `false` = discard them.
        commit: bool,
        /// Remote participant nodes owed this decision (coordinator only).
        parts: Vec<u32>,
    },
}

/// A log record: sequence number, owning transaction, operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Monotonically increasing log sequence number.
    pub lsn: u64,
    /// The transaction the operation belongs to.
    pub txn: TxnId,
    /// The operation.
    pub op: LogOp,
}

impl LogRecord {
    /// Minimum encoded size of one record (lsn + txn + op tag); used to
    /// sanity-bound count headers before allocating.
    pub const MIN_WIRE_SIZE: usize = 8 + 8 + 1;

    /// Encodes one record: lsn, txn, op tag, op body.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64(self.lsn);
        buf.put_u64(self.txn.raw());
        match &self.op {
            LogOp::Insert {
                table,
                partition,
                slot,
                tuple,
            } => {
                buf.put_u8(OP_INSERT);
                buf.put_u32(table.raw());
                buf.put_u32(partition.raw());
                buf.put_u32(*slot);
                tuple.encode_into(buf);
            }
            LogOp::Update { rid, after } => {
                buf.put_u8(OP_UPDATE);
                buf.put_u32(rid.table.raw());
                buf.put_u32(rid.partition.raw());
                buf.put_u32(rid.slot);
                after.encode_into(buf);
            }
            LogOp::Commit => buf.put_u8(OP_COMMIT),
            LogOp::Abort => buf.put_u8(OP_ABORT),
            LogOp::Prepare { coord, ops } => {
                buf.put_u8(OP_PREPARE);
                buf.put_u32(*coord);
                encode_prep_ops_into(ops, buf);
            }
            LogOp::Decide { commit, parts } => {
                buf.put_u8(OP_DECIDE);
                buf.put_u8(u8::from(*commit));
                buf.put_u32(parts.len() as u32);
                for p in parts {
                    buf.put_u32(*p);
                }
            }
        }
    }

    /// Decodes one record, advancing `buf`. Truncation and unknown op
    /// tags are [`DbError::Codec`] — a shipped batch must be rejectable
    /// without panicking, whatever bytes a faulty link delivers.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<LogRecord> {
        let lsn = buf.read_u64()?;
        let txn = TxnId(buf.read_u64()?);
        let op = match buf.read_u8()? {
            OP_INSERT => LogOp::Insert {
                table: TableId(buf.read_u32()?),
                partition: PartitionId(buf.read_u32()?),
                slot: buf.read_u32()?,
                tuple: Tuple::decode_from(buf)?,
            },
            OP_UPDATE => LogOp::Update {
                rid: Rid::new(
                    TableId(buf.read_u32()?),
                    PartitionId(buf.read_u32()?),
                    buf.read_u32()?,
                ),
                after: Tuple::decode_from(buf)?,
            },
            OP_COMMIT => LogOp::Commit,
            OP_ABORT => LogOp::Abort,
            OP_PREPARE => LogOp::Prepare {
                coord: buf.read_u32()?,
                ops: decode_prep_ops_from(buf)?,
            },
            OP_DECIDE => {
                let commit = buf.read_bool("log decide flag corrupt")?;
                let n = buf.read_u32()?;
                let n = buf.count(n, 4, "log decide count exceeds payload")?;
                let parts = (0..n).map(|_| buf.read_u32()).collect::<DbResult<_>>()?;
                LogOp::Decide { commit, parts }
            }
            _ => return Err(DbError::Codec("unknown log op tag")),
        };
        Ok(LogRecord { lsn, txn, op })
    }
}

/// Encodes a record sequence as the durable-log body: u64 count followed
/// by the records. This is exactly what `Wal::serialize` writes "to
/// disk", and what rides inside a [`ReplMsg::Records`] frame.
pub fn encode_records_into(records: &[LogRecord], buf: &mut BytesMut) {
    buf.put_u64(records.len() as u64);
    for r in records {
        r.encode_into(buf);
    }
}

/// Decodes a record sequence written by [`encode_records_into`],
/// advancing `buf`. The count header is bounded by the bytes actually
/// present before any allocation, so a corrupt header claiming 2^60
/// records is a [`DbError::Codec`], not an abort.
pub fn decode_records_from(buf: &mut impl Buf) -> DbResult<Vec<LogRecord>> {
    let n = buf.read_u64()?;
    let n = buf.count(n, LogRecord::MIN_WIRE_SIZE, "log count exceeds payload")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(LogRecord::decode_from(buf)?);
    }
    Ok(out)
}

/// One replication protocol message. See the module docs for who sends
/// what; the codec is symmetric so either end can decode a mixed stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// A batch of log records shipped primary → follower. Batches are
    /// LSN-contiguous and end on transaction boundaries, so the follower
    /// can replay each batch independently (commit detection needs the
    /// whole transaction in one batch).
    Records(Vec<LogRecord>),
    /// Follower → primary: every record with `lsn <= ack` is applied on
    /// the follower (cumulative, so lost acks are repaired by later ones).
    Ack {
        /// Highest contiguously applied LSN.
        lsn: u64,
    },
    /// Primary → follower: liveness under the lease, with the primary's
    /// election term and current log tip (next LSN to be assigned).
    Heartbeat {
        /// The sending primary's term.
        term: u64,
        /// The primary's next-LSN watermark.
        next_lsn: u64,
    },
    /// Follower → primary: ship your WAL tail starting at this LSN. Sent
    /// on (re)join and on gap detection.
    CatchupFrom {
        /// First LSN the sender is missing.
        lsn: u64,
    },
}

impl ReplMsg {
    /// Encodes the message: tag, then the body.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            ReplMsg::Records(records) => {
                buf.put_u8(MSG_REPL_RECORDS);
                encode_records_into(records, buf);
            }
            ReplMsg::Ack { lsn } => {
                buf.put_u8(MSG_REPL_ACK);
                buf.put_u64(*lsn);
            }
            ReplMsg::Heartbeat { term, next_lsn } => {
                buf.put_u8(MSG_REPL_HEARTBEAT);
                buf.put_u64(*term);
                buf.put_u64(*next_lsn);
            }
            ReplMsg::CatchupFrom { lsn } => {
                buf.put_u8(MSG_REPL_CATCHUP);
                buf.put_u64(*lsn);
            }
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one message, advancing `buf` past the consumed bytes.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<ReplMsg> {
        match buf.read_u8()? {
            MSG_REPL_RECORDS => Ok(ReplMsg::Records(decode_records_from(buf)?)),
            MSG_REPL_ACK => Ok(ReplMsg::Ack {
                lsn: buf.read_u64()?,
            }),
            MSG_REPL_HEARTBEAT => Ok(ReplMsg::Heartbeat {
                term: buf.read_u64()?,
                next_lsn: buf.read_u64()?,
            }),
            MSG_REPL_CATCHUP => Ok(ReplMsg::CatchupFrom {
                lsn: buf.read_u64()?,
            }),
            _ => Err(DbError::Codec("unknown repl message tag")),
        }
    }

    /// Decodes a standalone frame holding exactly one message.
    pub fn decode(bytes: &Bytes) -> DbResult<ReplMsg> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord {
                lsn: 10,
                txn: TxnId(3),
                op: LogOp::Insert {
                    table: TableId(1),
                    partition: PartitionId(0),
                    slot: 4,
                    tuple: Tuple::new(vec![Value::Int(7), Value::str("x")]),
                },
            },
            LogRecord {
                lsn: 11,
                txn: TxnId(3),
                op: LogOp::Update {
                    rid: Rid::new(TableId(1), PartitionId(0), 4),
                    after: Tuple::new(vec![Value::Int(7), Value::str("y")]),
                },
            },
            LogRecord {
                lsn: 12,
                txn: TxnId(3),
                op: LogOp::Commit,
            },
            LogRecord {
                lsn: 13,
                txn: TxnId(4),
                op: LogOp::Abort,
            },
            LogRecord {
                lsn: 14,
                txn: TxnId(5),
                op: LogOp::Prepare {
                    coord: 2,
                    ops: vec![PrepOp {
                        table: TableId(1),
                        tuple: Tuple::new(vec![Value::Int(8)]),
                    }],
                },
            },
            LogRecord {
                lsn: 15,
                txn: TxnId(5),
                op: LogOp::Decide {
                    commit: true,
                    parts: vec![0, 3],
                },
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        let msgs = [
            ReplMsg::Records(Vec::new()),
            ReplMsg::Ack { lsn: 99 },
            ReplMsg::Heartbeat {
                term: 2,
                next_lsn: 100,
            },
            ReplMsg::CatchupFrom { lsn: 14 },
        ];
        wire::assert_codec_contract(&msgs, ReplMsg::encode, ReplMsg::decode);
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        // One batch holding every op kind: prefixes cut into every body.
        let batch = ReplMsg::Records(sample_records());
        wire::assert_codec_contract(&[batch], ReplMsg::encode, ReplMsg::decode);
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        let enc = ReplMsg::Ack { lsn: 1 }.encode();
        let mut bad_tag = enc.chunk().to_vec();
        bad_tag[0] = 0x7F;
        assert_eq!(
            ReplMsg::decode(&Bytes::copy_from_slice(&bad_tag)),
            Err(DbError::Codec("unknown repl message tag"))
        );
        let mut trailing = enc.chunk().to_vec();
        trailing.push(0);
        assert_eq!(
            ReplMsg::decode(&Bytes::copy_from_slice(&trailing)),
            Err(DbError::Codec(wire::TRAILING))
        );
    }

    #[test]
    fn corrupt_count_header_is_rejected_without_allocating() {
        // A frame claiming 2^60 records with a 9-byte body must fail fast
        // on the count bound, not attempt a giant Vec reservation.
        let mut buf = BytesMut::new();
        buf.put_u8(MSG_REPL_RECORDS);
        buf.put_u64(1 << 60);
        buf.put_u8(0);
        assert_eq!(
            ReplMsg::decode(&buf.freeze()),
            Err(DbError::Codec("log count exceeds payload"))
        );
    }

    #[test]
    fn unknown_op_tag_is_codec_error() {
        let mut buf = BytesMut::new();
        buf.put_u64(1); // one record promised
        buf.put_u64(5); // lsn
        buf.put_u64(0); // txn
        buf.put_u8(9); // bogus op tag
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_records_from(&mut bytes),
            Err(DbError::Codec("unknown log op tag"))
        );
    }
}
