//! The cross-shard commit wire protocol: two-phase commit messages that
//! travel over inter-shard links (DESIGN.md §10).
//!
//! Five messages, tagged in the 0xC1..=0xC5 range — outside the scan
//! (0xA1..=0xA3) and replication (0xB1..=0xB4) tag spaces so a mixed
//! link can dispatch on the first byte:
//!
//! * [`CommitMsg::Prepare`] — coordinator → participant: stage these
//!   writes for the transaction and vote,
//! * [`CommitMsg::Vote`] — participant → coordinator: staged (yes) or
//!   refused (no),
//! * [`CommitMsg::Decide`] — coordinator → participant: commit or abort
//!   the staged transaction,
//! * [`CommitMsg::DecideAck`] — participant → coordinator: the decision
//!   is applied and durable, stop retransmitting it,
//! * [`CommitMsg::DecideQuery`] — participant → coordinator: "what
//!   became of this transaction?" — sent by a participant stuck with a
//!   staged transaction (e.g. after its own recovery, or after the
//!   coordinator crashed). The coordinator answers decided transactions
//!   from its log and unknown ones with presumed-abort; like
//!   `CatchupFrom` in [`crate::repl`], retransmission *is* the recovery
//!   protocol — there is no separate repair path.
//!
//! Decoding follows the wire contract of [`crate::wire`]: a torn frame
//! off a faulty link is a [`DbError::Codec`], never a panic of a shard
//! node.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{DbError, DbResult};
use crate::ids::{TableId, TxnId};
use crate::tuple::Tuple;
use crate::wire::{self, WireRead};

/// Message tag of an encoded [`CommitMsg::Prepare`].
pub const MSG_COMMIT_PREPARE: u8 = 0xC1;
/// Message tag of an encoded [`CommitMsg::Vote`].
pub const MSG_COMMIT_VOTE: u8 = 0xC2;
/// Message tag of an encoded [`CommitMsg::Decide`].
pub const MSG_COMMIT_DECIDE: u8 = 0xC3;
/// Message tag of an encoded [`CommitMsg::DecideAck`].
pub const MSG_COMMIT_DECIDE_ACK: u8 = 0xC4;
/// Message tag of an encoded [`CommitMsg::DecideQuery`].
pub const MSG_COMMIT_DECIDE_QUERY: u8 = 0xC5;

/// One staged write inside a [`CommitMsg::Prepare`]: an insert into
/// `table` that becomes visible only if the transaction commits. Also
/// the payload of a `LogOp::Prepare` WAL record, so a participant's
/// staged state survives its own crash.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepOp {
    /// Table the row is destined for.
    pub table: TableId,
    /// The full row image to insert on commit.
    pub tuple: Tuple,
}

impl PrepOp {
    /// Minimum encoded size (table id + empty tuple header); used to
    /// sanity-bound count headers before allocating.
    pub const MIN_WIRE_SIZE: usize = 4 + 2;

    /// Encodes one staged op: table id, then the tuple.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.table.raw());
        self.tuple.encode_into(buf);
    }

    /// Decodes one staged op, advancing `buf`.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<PrepOp> {
        Ok(PrepOp {
            table: TableId(buf.read_u32()?),
            tuple: Tuple::decode_from(buf)?,
        })
    }
}

/// Encodes a staged-op sequence: u32 count followed by the ops. Shared
/// by [`CommitMsg::Prepare`] and the `LogOp::Prepare` WAL record body.
pub fn encode_prep_ops_into(ops: &[PrepOp], buf: &mut BytesMut) {
    buf.put_u32(ops.len() as u32);
    for op in ops {
        op.encode_into(buf);
    }
}

/// Decodes a staged-op sequence written by [`encode_prep_ops_into`].
/// The count header is bounded by the bytes actually present before any
/// allocation happens.
pub fn decode_prep_ops_from(buf: &mut impl Buf) -> DbResult<Vec<PrepOp>> {
    let n = buf.read_u32()?;
    let n = buf.count(n, PrepOp::MIN_WIRE_SIZE, "prep op count exceeds payload")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(PrepOp::decode_from(buf)?);
    }
    Ok(out)
}

/// One two-phase-commit protocol message. See the module docs for who
/// sends what; the codec is symmetric so either end decodes any frame.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitMsg {
    /// Coordinator → participant: stage `ops` for `txn` and vote. `coord`
    /// names the coordinating node so a recovering participant knows whom
    /// to ask about an in-doubt transaction.
    Prepare {
        /// The distributed transaction.
        txn: TxnId,
        /// The coordinating shard node's id.
        coord: u32,
        /// Writes to stage at the receiving participant.
        ops: Vec<PrepOp>,
    },
    /// Participant → coordinator: `yes` if the ops are staged and
    /// durable, `no` if the participant refuses (the coordinator must
    /// then decide abort).
    Vote {
        /// The distributed transaction.
        txn: TxnId,
        /// Whether the participant staged successfully.
        yes: bool,
    },
    /// Coordinator → participant: the outcome. Retransmitted until the
    /// participant acks, so delivery loss only delays, never diverges.
    Decide {
        /// The distributed transaction.
        txn: TxnId,
        /// `true` to apply the staged writes, `false` to discard them.
        commit: bool,
    },
    /// Participant → coordinator: the decision for `txn` is applied and
    /// logged; retransmission can stop.
    DecideAck {
        /// The distributed transaction.
        txn: TxnId,
    },
    /// Participant → coordinator: re-ask for the outcome of a staged
    /// transaction (participant recovery, or a lost `Decide`).
    DecideQuery {
        /// The distributed transaction.
        txn: TxnId,
    },
}

impl CommitMsg {
    /// Encodes the message: tag, then the body.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            CommitMsg::Prepare { txn, coord, ops } => {
                buf.put_u8(MSG_COMMIT_PREPARE);
                buf.put_u64(txn.raw());
                buf.put_u32(*coord);
                encode_prep_ops_into(ops, buf);
            }
            CommitMsg::Vote { txn, yes } => {
                buf.put_u8(MSG_COMMIT_VOTE);
                buf.put_u64(txn.raw());
                buf.put_u8(u8::from(*yes));
            }
            CommitMsg::Decide { txn, commit } => {
                buf.put_u8(MSG_COMMIT_DECIDE);
                buf.put_u64(txn.raw());
                buf.put_u8(u8::from(*commit));
            }
            CommitMsg::DecideAck { txn } => {
                buf.put_u8(MSG_COMMIT_DECIDE_ACK);
                buf.put_u64(txn.raw());
            }
            CommitMsg::DecideQuery { txn } => {
                buf.put_u8(MSG_COMMIT_DECIDE_QUERY);
                buf.put_u64(txn.raw());
            }
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one message, advancing `buf` past the consumed bytes.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<CommitMsg> {
        let tag = buf.read_u8()?;
        let txn = TxnId(buf.read_u64()?);
        match tag {
            MSG_COMMIT_PREPARE => Ok(CommitMsg::Prepare {
                txn,
                coord: buf.read_u32()?,
                ops: decode_prep_ops_from(buf)?,
            }),
            MSG_COMMIT_VOTE => Ok(CommitMsg::Vote {
                txn,
                yes: buf.read_bool("commit vote flag corrupt")?,
            }),
            MSG_COMMIT_DECIDE => Ok(CommitMsg::Decide {
                txn,
                commit: buf.read_bool("commit decide flag corrupt")?,
            }),
            MSG_COMMIT_DECIDE_ACK => Ok(CommitMsg::DecideAck { txn }),
            MSG_COMMIT_DECIDE_QUERY => Ok(CommitMsg::DecideQuery { txn }),
            _ => Err(DbError::Codec("unknown commit message tag")),
        }
    }

    /// Decodes a standalone frame holding exactly one message.
    pub fn decode(bytes: &Bytes) -> DbResult<CommitMsg> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_ops() -> Vec<PrepOp> {
        vec![
            PrepOp {
                table: TableId(2),
                tuple: Tuple::new(vec![Value::Int(41), Value::str("remote")]),
            },
            PrepOp {
                table: TableId(3),
                tuple: Tuple::new(vec![Value::Int(42), Value::Null]),
            },
        ]
    }

    fn sample_msgs() -> Vec<CommitMsg> {
        vec![
            CommitMsg::Prepare {
                txn: TxnId(7),
                coord: 1,
                ops: sample_ops(),
            },
            CommitMsg::Prepare {
                txn: TxnId(8),
                coord: 0,
                ops: Vec::new(),
            },
            CommitMsg::Vote {
                txn: TxnId(7),
                yes: true,
            },
            CommitMsg::Vote {
                txn: TxnId(7),
                yes: false,
            },
            CommitMsg::Decide {
                txn: TxnId(7),
                commit: true,
            },
            CommitMsg::Decide {
                txn: TxnId(9),
                commit: false,
            },
            CommitMsg::DecideAck { txn: TxnId(7) },
            CommitMsg::DecideQuery { txn: TxnId(9) },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        wire::assert_codec_contract(&sample_msgs(), CommitMsg::encode, CommitMsg::decode);
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        // Prepares staging one op of every value kind, and one op per table.
        let one_each = PrepOp {
            table: TableId(4),
            tuple: Tuple::new(vec![
                Value::Null,
                Value::Int(-1),
                Value::Float(0.5),
                Value::str("ß"),
            ]),
        };
        let prepares = [
            CommitMsg::Prepare {
                txn: TxnId(1),
                coord: 3,
                ops: vec![one_each],
            },
            CommitMsg::Prepare {
                txn: TxnId(2),
                coord: 0,
                ops: (0..3)
                    .map(|t| PrepOp {
                        table: TableId(t),
                        tuple: Tuple::empty(),
                    })
                    .collect(),
            },
        ];
        wire::assert_codec_contract(&prepares, CommitMsg::encode, CommitMsg::decode);
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        let enc = CommitMsg::DecideAck { txn: TxnId(1) }.encode();
        let mut bad_tag = enc.chunk().to_vec();
        bad_tag[0] = 0x7F;
        assert_eq!(
            CommitMsg::decode(&Bytes::copy_from_slice(&bad_tag)),
            Err(DbError::Codec("unknown commit message tag"))
        );
        let mut trailing = enc.chunk().to_vec();
        trailing.push(0);
        assert_eq!(
            CommitMsg::decode(&Bytes::copy_from_slice(&trailing)),
            Err(DbError::Codec(wire::TRAILING))
        );
    }

    #[test]
    fn bogus_bool_bytes_are_codec_errors() {
        let vote = CommitMsg::Vote {
            txn: TxnId(1),
            yes: true,
        }
        .encode();
        let mut corrupt = vote.chunk().to_vec();
        *corrupt.last_mut().unwrap() = 2;
        assert_eq!(
            CommitMsg::decode(&Bytes::copy_from_slice(&corrupt)),
            Err(DbError::Codec("commit vote flag corrupt"))
        );
        let decide = CommitMsg::Decide {
            txn: TxnId(1),
            commit: false,
        }
        .encode();
        let mut corrupt = decide.chunk().to_vec();
        *corrupt.last_mut().unwrap() = 0xFF;
        assert_eq!(
            CommitMsg::decode(&Bytes::copy_from_slice(&corrupt)),
            Err(DbError::Codec("commit decide flag corrupt"))
        );
    }

    #[test]
    fn corrupt_op_count_is_rejected_without_allocating() {
        // A prepare claiming 2^30 staged ops with a near-empty body must
        // fail fast on the count bound, not attempt a giant reservation.
        let mut buf = BytesMut::new();
        buf.put_u8(MSG_COMMIT_PREPARE);
        buf.put_u64(1); // txn
        buf.put_u32(0); // coord
        buf.put_u32(1 << 30); // op count
        buf.put_u8(0);
        assert_eq!(
            CommitMsg::decode(&buf.freeze()),
            Err(DbError::Codec("prep op count exceeds payload"))
        );
    }
}
