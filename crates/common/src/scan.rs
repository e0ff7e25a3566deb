//! The remote scan wire protocol: self-describing pushed-down scan
//! requests and certified columnar replies (DESIGN.md §8).
//!
//! AnyDB's data beaming (paper §4, Figure 6) only works across component
//! boundaries if the *scan itself* can travel: a compute AC must be able
//! to hand a remote storage AC its projection, its predicate, and its
//! batching wishes as bytes, and get back only the surviving columns plus
//! proof of what the scan observed. [`ScanRequest`] and [`ScanReply`] are
//! those two messages. Both reuse the existing codecs end to end — the
//! depth-capped [`ColPredicate`] encoding and the one-tag-per-column
//! [`ColumnBatch`] encoding — framed by a one-byte message tag so a link
//! carrying mixed traffic can dispatch (and fuzzers have something to
//! flip).
//!
//! The reply carries the [`ScanSnapshot`] certificate verbatim: the
//! consumer — not the storage side — decides whether a scan's consistency
//! (point-in-time vs read-committed prefix) is good enough for its query,
//! so the evidence must cross the wire with the data it certifies.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::column::{ColPredicate, ColumnBatch};
use crate::error::{DbError, DbResult};
use crate::ids::PartitionId;
use crate::wire::{self, WireRead};

/// Message tag of an encoded [`ScanRequest`]. Deliberately outside the
/// predicate (1..=4) and column (1..=3) tag ranges so a frame can never
/// be mistaken for a bare payload.
pub const MSG_SCAN_REQUEST: u8 = 0xA1;
/// Message tag of an encoded [`ScanReply`].
pub const MSG_SCAN_REPLY: u8 = 0xA2;
/// Message tag of an encoded [`ScanError`].
pub const MSG_SCAN_ERROR: u8 = 0xA3;

/// Request flag: a predicate follows the projection.
const FLAG_PRED: u8 = 1 << 0;
/// Request flag: serve through the shared-scan cache (the snapshot hint —
/// the requester accepts any cached point-in-time image of this shape).
const FLAG_SHARED: u8 = 1 << 1;
/// Request flag: scan one named partition instead of all of them.
const FLAG_PARTITION: u8 = 1 << 2;
/// All flag bits a decoder understands; anything else is from the future
/// and rejected rather than silently ignored.
const FLAG_MASK: u8 = FLAG_PRED | FLAG_SHARED | FLAG_PARTITION;

/// What a snapshot scan observed — the snapshot's consistency
/// certificate. Produced by the storage layer, shipped inside every
/// [`ScanReply`].
///
/// The contract (also §6 of DESIGN.md):
///
/// 1. **Fixed prefix** — the scan covers exactly the `prefix` rows present
///    when it began, in slot order; rows appended while it runs are never
///    visible.
/// 2. **Row atomicity** — every row is materialized under mutual exclusion
///    with writers, so no torn row can be observed, ever.
/// 3. **Epoch certificate** — `epoch_start == epoch_end` proves no write
///    (append or update) was interleaved anywhere in the partition, i.e.
///    the whole prefix is one point-in-time image. When they differ, the
///    scan is still a sequence of per-chunk point-in-time images
///    (read-committed prefix semantics) and `max_version` bounds the
///    newest row state it can contain.
/// 4. **Column-set certificate** — `cols_epoch_start == cols_epoch_end`
///    proves no write *changed a projected or filtered column* (and
///    nothing was appended): the scanned projection is one point-in-time
///    image even if unrelated columns were written mid-scan. This is the
///    certificate the shared-scan cache revalidates against, which is what
///    keeps cached OLAP snapshots alive across OLTP writes to disjoint
///    columns. Un-mirrored partitions fall back to the global epochs here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// Rows in the captured prefix (scanned pre-filter).
    pub prefix: usize,
    /// Rows that passed the predicate into the output batch.
    pub matched: usize,
    /// Partition write epoch when the scan began.
    pub epoch_start: u64,
    /// Partition write epoch when the scan finished.
    pub epoch_end: u64,
    /// Max relevant epoch (appends + projected ∪ filtered columns) when
    /// the scan began.
    pub cols_epoch_start: u64,
    /// Max relevant epoch when the scan finished.
    pub cols_epoch_end: u64,
    /// Highest row version observed in the prefix (0 when empty).
    pub max_version: u64,
}

impl ScanSnapshot {
    /// True when the whole prefix is certified as one point-in-time image
    /// (no write anywhere in the partition raced the scan).
    pub fn is_point_in_time(&self) -> bool {
        self.epoch_start == self.epoch_end
    }

    /// True when the scanned **projection** is certified as one
    /// point-in-time image: no append and no change to a projected or
    /// filtered column raced the scan (writes to unrelated columns are
    /// allowed). Implied by [`ScanSnapshot::is_point_in_time`]; this is
    /// the cacheable condition.
    pub fn is_cols_point_in_time(&self) -> bool {
        self.cols_epoch_start == self.cols_epoch_end
    }

    /// Seven u64 fields, no framing of its own (the enclosing message
    /// provides the tag).
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64(self.prefix as u64);
        buf.put_u64(self.matched as u64);
        buf.put_u64(self.epoch_start);
        buf.put_u64(self.epoch_end);
        buf.put_u64(self.cols_epoch_start);
        buf.put_u64(self.cols_epoch_end);
        buf.put_u64(self.max_version);
    }

    fn decode_from(buf: &mut impl Buf) -> DbResult<ScanSnapshot> {
        Ok(ScanSnapshot {
            prefix: buf.read_u64()? as usize,
            matched: buf.read_u64()? as usize,
            epoch_start: buf.read_u64()?,
            epoch_end: buf.read_u64()?,
            cols_epoch_start: buf.read_u64()?,
            cols_epoch_end: buf.read_u64()?,
            max_version: buf.read_u64()?,
        })
    }
}

/// A pushed-down scan, as a message: "run this projection and predicate
/// at *your* data and ship back only what survives".
///
/// There is no table field — a scan connection is established per table
/// (the request addresses "the table at the other end"), exactly like the
/// per-stream links the beaming pipeline already opens per scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    /// Scan one partition, or `None` for every partition the serving AC
    /// holds (one certified reply stream per partition either way).
    pub partition: Option<PartitionId>,
    /// Column positions to ship back, in reply column order.
    pub proj: Vec<usize>,
    /// Predicate evaluated at the remote scan; `None` ships the whole
    /// projection. Columns it reads need not appear in `proj`.
    pub pred: Option<ColPredicate>,
    /// Split surviving rows into reply batches of at most this many rows
    /// (pipelining granularity); `0` means one reply per partition.
    pub batch_rows: usize,
    /// Snapshot hint: when `true` the scan may be served from (and will
    /// populate) the shared-scan cache — the requester accepts any cached
    /// point-in-time image of this shape. When `false` the storage AC
    /// runs a private snapshot scan.
    pub shared: bool,
}

impl ScanRequest {
    /// Encodes the request: message tag, flags, optional partition,
    /// batch-rows, projection, then the optional predicate via the
    /// [`ColPredicate`] codec.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(self.proj.len() <= u16::MAX as usize);
        buf.put_u8(MSG_SCAN_REQUEST);
        let mut flags = 0u8;
        if self.pred.is_some() {
            flags |= FLAG_PRED;
        }
        if self.shared {
            flags |= FLAG_SHARED;
        }
        if self.partition.is_some() {
            flags |= FLAG_PARTITION;
        }
        buf.put_u8(flags);
        if let Some(p) = self.partition {
            buf.put_u32(p.raw());
        }
        buf.put_u32(self.batch_rows as u32);
        buf.put_u16(self.proj.len() as u16);
        for &c in &self.proj {
            buf.put_u32(c as u32);
        }
        if let Some(pred) = &self.pred {
            pred.encode_into(buf);
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one request, advancing `buf` past the consumed bytes.
    /// Rejects truncation, a wrong message tag, and unknown flag bits
    /// (a future field this decoder would silently mis-frame).
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<ScanRequest> {
        if buf.read_u8()? != MSG_SCAN_REQUEST {
            return Err(DbError::Codec("not a scan request"));
        }
        let flags = buf.read_u8()?;
        if flags & !FLAG_MASK != 0 {
            return Err(DbError::Codec("unknown scan request flags"));
        }
        let partition = if flags & FLAG_PARTITION != 0 {
            Some(PartitionId(buf.read_u32()?))
        } else {
            None
        };
        let batch_rows = buf.read_u32()? as usize;
        let nproj = buf.read_u16()?;
        let nproj = buf.count(nproj, 4, "scan request projection count exceeds payload")?;
        let proj = (0..nproj)
            .map(|_| Ok(buf.read_u32()? as usize))
            .collect::<DbResult<_>>()?;
        let pred = if flags & FLAG_PRED != 0 {
            Some(ColPredicate::decode_from(buf)?)
        } else {
            None
        };
        Ok(ScanRequest {
            partition,
            proj,
            pred,
            batch_rows,
            shared: flags & FLAG_SHARED != 0,
        })
    }

    /// Decodes a standalone frame holding exactly one request.
    pub fn decode(bytes: &Bytes) -> DbResult<ScanRequest> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

/// One certified batch of surviving columns from one partition's scan.
///
/// A request that splits (`batch_rows > 0`) produces several replies per
/// partition; each repeats the partition's [`ScanSnapshot`] so every
/// frame is independently interpretable (a consumer can act on batch `k`
/// before batch `k+1` exists — the certificate cannot arrive "at the
/// end" without stalling the pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReply {
    /// Partition the batch came from.
    pub partition: PartitionId,
    /// What the serving scan observed (see [`ScanSnapshot`]).
    pub snapshot: ScanSnapshot,
    /// The surviving rows, projected and encoded columnar.
    pub batch: ColumnBatch,
}

impl ScanReply {
    /// Encodes the reply: message tag, partition, certificate, then the
    /// [`ColumnBatch`] codec.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u8(MSG_SCAN_REPLY);
        buf.put_u32(self.partition.raw());
        self.snapshot.encode_into(buf);
        self.batch.encode_into(buf);
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one reply, advancing `buf` past the consumed bytes.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<ScanReply> {
        if buf.read_u8()? != MSG_SCAN_REPLY {
            return Err(DbError::Codec("not a scan reply"));
        }
        Ok(ScanReply {
            partition: PartitionId(buf.read_u32()?),
            snapshot: ScanSnapshot::decode_from(buf)?,
            batch: ColumnBatch::decode_from(buf)?,
        })
    }

    /// Decodes a standalone frame holding exactly one reply.
    pub fn decode(bytes: &Bytes) -> DbResult<ScanReply> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

/// A serving AC's refusal, as a message: the request frame could not be
/// decoded or could not be served, and *why*. Without this, a remote
/// caller whose request was malformed would wait on a reply stream that
/// never produces anything and learn nothing when it times out — the
/// server knew the reason and dropped it on the floor (the pre-PR-8
/// `debug_assert!` + skip behavior, which is silence in release builds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// Human-readable reason, bounded by the codec at `u16::MAX` bytes.
    pub reason: String,
}

impl ScanError {
    /// Builds an error reply from any displayable cause.
    pub fn new(reason: impl std::fmt::Display) -> Self {
        let mut reason = reason.to_string();
        reason.truncate(u16::MAX as usize);
        Self { reason }
    }

    /// Encodes the error: message tag, length-framed UTF-8 reason.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u8(MSG_SCAN_ERROR);
        buf.put_u16(self.reason.len() as u16);
        buf.put_slice(self.reason.as_bytes());
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one error reply, advancing `buf`.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<ScanError> {
        if buf.read_u8()? != MSG_SCAN_ERROR {
            return Err(DbError::Codec("not a scan error"));
        }
        let len = buf.read_u16()?;
        let reason = buf.read_str(len.into(), "scan error reason not utf-8")?;
        Ok(ScanError { reason })
    }

    /// Decodes a standalone frame holding exactly one error reply.
    pub fn decode(bytes: &Bytes) -> DbResult<ScanError> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn sample_snapshot() -> ScanSnapshot {
        ScanSnapshot {
            prefix: 100,
            matched: 7,
            epoch_start: 3,
            epoch_end: 3,
            cols_epoch_start: 2,
            cols_epoch_end: 2,
            max_version: 41,
        }
    }

    fn sample_batch() -> ColumnBatch {
        ColumnBatch::from_tuples(
            &[DataType::Int, DataType::Str],
            &[
                Tuple::new(vec![Value::Int(1), Value::str("aa")]),
                Tuple::new(vec![Value::Null, Value::str("bb")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn request_roundtrips_all_field_shapes() {
        let reqs = [
            ScanRequest {
                partition: None,
                proj: vec![],
                pred: None,
                batch_rows: 0,
                shared: false,
            },
            ScanRequest {
                partition: Some(PartitionId(9)),
                proj: vec![3, 0, 7],
                pred: Some(ColPredicate::And(vec![
                    ColPredicate::IntGe { col: 1, min: -4 },
                    ColPredicate::StrPrefix {
                        col: 2,
                        prefix: "ab".into(),
                    },
                ])),
                batch_rows: 512,
                shared: true,
            },
        ];
        wire::assert_codec_contract(&reqs, ScanRequest::encode, ScanRequest::decode);
    }

    #[test]
    fn request_rejects_unknown_flags_tag_and_trailing() {
        let req = ScanRequest {
            partition: None,
            proj: vec![1],
            pred: None,
            batch_rows: 0,
            shared: false,
        };
        let enc = req.encode();
        let decode_with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut frame = enc.chunk().to_vec();
            edit(&mut frame);
            ScanRequest::decode(&Bytes::copy_from_slice(&frame))
        };
        assert_eq!(
            decode_with(&|f| f[0] = MSG_SCAN_REPLY),
            Err(DbError::Codec("not a scan request"))
        );
        assert_eq!(
            decode_with(&|f| f[1] |= 1 << 6),
            Err(DbError::Codec("unknown scan request flags"))
        );
        assert_eq!(
            decode_with(&|f| f.push(0)),
            Err(DbError::Codec(wire::TRAILING))
        );
    }

    #[test]
    fn request_rejects_every_strict_prefix() {
        let req = ScanRequest {
            partition: Some(PartitionId(2)),
            proj: vec![0, 4],
            pred: Some(ColPredicate::IntBetween {
                col: 4,
                min: 1,
                max: 9,
            }),
            batch_rows: 64,
            shared: true,
        };
        wire::assert_codec_contract(&[req], ScanRequest::encode, ScanRequest::decode);
    }

    #[test]
    fn reply_roundtrips() {
        let reply = |batch| ScanReply {
            partition: PartitionId(3),
            snapshot: sample_snapshot(),
            batch,
        };
        let replies = [
            reply(sample_batch()),
            reply(ColumnBatch::new(&[DataType::Int])),
            reply(crate::column::tests::wide_sample()),
        ];
        wire::assert_codec_contract(&replies, ScanReply::encode, ScanReply::decode);
    }

    #[test]
    fn reply_rejects_prefixes_tag_and_trailing() {
        let reply = ScanReply {
            partition: PartitionId(0),
            snapshot: sample_snapshot(),
            batch: sample_batch(),
        };
        wire::assert_codec_contract(
            std::slice::from_ref(&reply),
            ScanReply::encode,
            ScanReply::decode,
        );
        let mut bad_tag = reply.encode().chunk().to_vec();
        bad_tag[0] = MSG_SCAN_REQUEST;
        assert_eq!(
            ScanReply::decode(&Bytes::copy_from_slice(&bad_tag)),
            Err(DbError::Codec("not a scan reply"))
        );
    }

    #[test]
    fn scan_error_roundtrips_and_rejects_prefixes() {
        let err = ScanError::new(DbError::Codec("unknown scan request flags"));
        wire::assert_codec_contract(
            std::slice::from_ref(&err),
            ScanError::encode,
            ScanError::decode,
        );
        let mut bad_tag = err.encode().chunk().to_vec();
        bad_tag[0] = MSG_SCAN_REPLY;
        assert_eq!(
            ScanError::decode(&Bytes::copy_from_slice(&bad_tag)),
            Err(DbError::Codec("not a scan error"))
        );
    }

    #[test]
    fn snapshot_certificates() {
        let s = sample_snapshot();
        assert!(s.is_point_in_time());
        assert!(s.is_cols_point_in_time());
        let racy = ScanSnapshot {
            epoch_end: 4,
            cols_epoch_end: 4,
            ..s
        };
        assert!(!racy.is_point_in_time());
        assert!(!racy.is_cols_point_in_time());
    }
}
