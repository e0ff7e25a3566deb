//! Property tests hardening the WAL codec the way the scan codec is
//! hardened (PR 8 satellite): a serialized log — or a shipped record
//! batch, same encoding — must roundtrip exactly, and *no* torn prefix,
//! bit-flip, or unknown-op fuzz may ever panic the decoder. A follower
//! applies whatever bytes a faulty link delivers; its only defenses are
//! `DbError` rejections.

use anydb_common::commit::PrepOp;
use anydb_common::repl::{LogOp, LogRecord, ReplMsg};
use anydb_common::wire::assert_codec_contract;
use anydb_common::{PartitionId, Rid, TableId, Tuple, TxnId, Value};
use anydb_storage::Wal;
use bytes::Bytes;
use proptest::prelude::*;

/// Builds a log of `n` records whose shapes are driven by `shape_seed`,
/// mixing all six ops (including the 2PC `Prepare`/`Decide` records a
/// sharded node logs) and both tuple value types.
fn build_wal(n: usize, shape_seed: u64) -> Wal {
    let wal = Wal::new();
    for i in 0..n {
        let txn = TxnId((shape_seed ^ i as u64) % 7);
        let op = match (shape_seed.wrapping_mul(31).wrapping_add(i as u64)) % 6 {
            0 => LogOp::Insert {
                table: TableId((i % 3) as u32),
                partition: PartitionId((i % 2) as u32),
                slot: i as u32,
                tuple: Tuple::new(vec![Value::Int(i as i64), Value::str("row")]),
            },
            1 => LogOp::Update {
                rid: Rid::new(TableId(0), PartitionId(0), i as u32),
                after: Tuple::new(vec![Value::Null, Value::Float(i as f64)]),
            },
            2 => LogOp::Commit,
            3 => LogOp::Abort,
            4 => LogOp::Prepare {
                coord: (i % 4) as u32,
                ops: (0..i % 3)
                    .map(|k| PrepOp {
                        table: TableId(k as u32),
                        tuple: Tuple::new(vec![Value::Int(k as i64), Value::Null]),
                    })
                    .collect(),
            },
            _ => LogOp::Decide {
                commit: i.is_multiple_of(2),
                parts: (0..i % 3).map(|k| k as u32).collect(),
            },
        };
        wal.append(txn, op);
    }
    wal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serialize/deserialize is lossless for arbitrary record mixes.
    #[test]
    fn serialized_log_roundtrips(n in 0usize..40, shape in any::<u64>()) {
        let wal = build_wal(n, shape);
        let records = Wal::deserialize(wal.serialize()).unwrap();
        prop_assert_eq!(records, wal.snapshot());
    }

    /// Every strict prefix of a serialized log is rejected with an error
    /// — never a panic, never a silent partial parse.
    #[test]
    fn every_strict_prefix_is_rejected(n in 1usize..12, shape in any::<u64>()) {
        let bytes = build_wal(n, shape).serialize();
        for cut in 0..bytes.len() {
            let got = Wal::deserialize(bytes.slice(0..cut));
            prop_assert!(got.is_err(), "prefix of {} bytes decoded", cut);
        }
    }

}

/// Logs of every record shape `build_wal` makes: each of the six ops at
/// every position it cycles through, in logs of one to six records.
fn every_shape() -> Vec<Vec<LogRecord>> {
    (1..=6)
        .flat_map(|n| (0..6).map(move |shape| build_wal(n, shape).snapshot()))
        .collect()
}

/// Single-byte corruption anywhere in a serialized log either still
/// decodes (the flipped byte was payload, e.g. a tuple int) or is
/// rejected with a `DbError::Codec` — it never panics the decoder.
/// Enumerated, not sampled: every value at every byte of every log of
/// [`every_shape`]. This is the unknown-op fuzz: flips landing on an op
/// tag byte produce tags 6..=255.
#[test]
fn bitflips_never_panic() {
    let serialize = |records: &Vec<LogRecord>| {
        let wal = Wal::new();
        wal.extend_shipped(records);
        wal.serialize()
    };
    let deserialize = |bytes: &Bytes| Wal::deserialize(bytes.clone());
    assert_codec_contract(&every_shape(), serialize, deserialize);
}

/// The same guarantees hold for framed `ReplMsg::Records` batches — what
/// actually crosses the replication link.
#[test]
fn repl_records_frame_prefixes_and_fuzz() {
    let frames: Vec<ReplMsg> = every_shape().into_iter().map(ReplMsg::Records).collect();
    assert_codec_contract(&frames, ReplMsg::encode, ReplMsg::decode);
}
