//! Golden frames: one sample of every wire message type with its exact
//! encoded bytes checked in.
//!
//! Roundtrip tests prove that a codec agrees with itself; these prove it
//! still agrees with the bytes already on the wire (and in serialized
//! logs). A codec change must leave every frame below byte-identical, and
//! every frame must still decode to its sample.

use anydb::common::{
    ColPredicate, ColumnBatch, CommitMsg, DataType, DbResult, LogOp, LogRecord, PartitionId,
    PrepOp, ReplMsg, Rid, ScanError, ScanReply, ScanRequest, ScanSnapshot, TableId, Tuple, TxnId,
    Value,
};
use anydb::storage::Wal;
use anydb::stream::flow::Flow;
use bytes::{Buf, Bytes};

fn hex(bytes: &Bytes) -> String {
    bytes.chunk().iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Bytes {
    let raw: Vec<u8> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect();
    Bytes::copy_from_slice(&raw)
}

/// Asserts `sample` encodes to exactly `golden` and `golden` decodes back
/// to `sample`.
fn check<T: PartialEq + std::fmt::Debug>(
    what: &str,
    sample: &T,
    encode: impl Fn(&T) -> Bytes,
    decode: impl Fn(&Bytes) -> DbResult<T>,
    golden: &str,
) {
    assert_eq!(hex(&encode(sample)), golden, "{what}: encoding changed");
    assert_eq!(
        &decode(&unhex(golden)).unwrap(),
        sample,
        "{what}: golden frame decodes differently"
    );
}

/// The six records of [`records`] in the durable-log body encoding (u64
/// count, then lsn · txn · op tag · op body per record).
const RECORDS: &str = concat!(
    "0000000000000006",
    // Insert into (table 1, partition 2, slot 4) of (7, "x").
    "0000000000000000000000000000000300000000010000000200000004",
    "0002010000000000000007030000000178",
    // Update of the same rid to (NULL, 0.5).
    "0000000000000001000000000000000301000000010000000200000004",
    "000200023fe0000000000000",
    // Commit, abort.
    "0000000000000002000000000000000302",
    "0000000000000003000000000000000403",
    // Prepare (coord 2) of one staged (8) into table 6.
    "000000000000000400000000000000050400000002",
    "00000001000000060001010000000000000008",
    // Decide commit, owed to participants 0 and 3.
    "0000000000000005000000000000000505010000000200000000",
    "00000003",
);

/// A three-row batch of (int, float, str) columns, every column with a
/// null bitmap.
const BATCH: &str = concat!(
    "00000003",
    "0003",
    // Int: tag, null flag, bitmap (row 2), then 1, -2, 0.
    "010104",
    "0000000000000001",
    "fffffffffffffffe",
    "0000000000000000",
    // Float: tag, null flag, bitmap (row 1), then 1.5, 0.0, 2.5.
    "020102",
    "3ff8000000000000",
    "0000000000000000",
    "4004000000000000",
    // Str: tag, null flag, bitmap (row 2), offsets 0, 5, 5, 5, "alpha".
    "030104",
    "00000000000000050000000500000005",
    "616c706861",
);

fn tuple() -> Tuple {
    Tuple::new(vec![
        Value::Int(-5),
        Value::Float(3.25),
        Value::str("héllo"),
        Value::Null,
    ])
}

fn predicate() -> ColPredicate {
    ColPredicate::And(vec![
        ColPredicate::IntGe { col: 1, min: -7 },
        ColPredicate::IntBetween {
            col: 2,
            min: 20070101,
            max: 20121231,
        },
        ColPredicate::StrPrefix {
            col: 5,
            prefix: "Aß".into(),
        },
    ])
}

fn batch() -> ColumnBatch {
    let mut b = ColumnBatch::new(&[DataType::Int, DataType::Float, DataType::Str]);
    b.push_row(&[Value::Int(1), Value::Float(1.5), Value::str("alpha")])
        .unwrap();
    b.push_row(&[Value::Int(-2), Value::Null, Value::str("")])
        .unwrap();
    b.push_row(&[Value::Null, Value::Float(2.5), Value::Null])
        .unwrap();
    b
}

fn records() -> Vec<LogRecord> {
    let rec = |lsn, txn, op| LogRecord {
        lsn,
        txn: TxnId(txn),
        op,
    };
    vec![
        rec(
            0,
            3,
            LogOp::Insert {
                table: TableId(1),
                partition: PartitionId(2),
                slot: 4,
                tuple: Tuple::new(vec![Value::Int(7), Value::str("x")]),
            },
        ),
        rec(
            1,
            3,
            LogOp::Update {
                rid: Rid::new(TableId(1), PartitionId(2), 4),
                after: Tuple::new(vec![Value::Null, Value::Float(0.5)]),
            },
        ),
        rec(2, 3, LogOp::Commit),
        rec(3, 4, LogOp::Abort),
        rec(
            4,
            5,
            LogOp::Prepare {
                coord: 2,
                ops: vec![PrepOp {
                    table: TableId(6),
                    tuple: Tuple::new(vec![Value::Int(8)]),
                }],
            },
        ),
        rec(
            5,
            5,
            LogOp::Decide {
                commit: true,
                parts: vec![0, 3],
            },
        ),
    ]
}

#[test]
fn tuple_frame_is_unchanged() {
    check(
        "tuple",
        &tuple(),
        Tuple::encode,
        Tuple::decode,
        "000401fffffffffffffffb02400a000000000000030000000668c3a96c6c6f00",
    );
}

#[test]
fn predicate_frame_is_unchanged() {
    check(
        "predicate",
        &predicate(),
        ColPredicate::encode,
        ColPredicate::decode,
        concat!(
            "040003",
            "0100000001fffffffffffffff9",
            "03000000020000000001323ed5000000000133068f",
            "0200000005000341c39f",
        ),
    );
}

#[test]
fn column_batch_frame_is_unchanged() {
    check(
        "column batch",
        &batch(),
        ColumnBatch::encode,
        ColumnBatch::decode,
        BATCH,
    );
}

#[test]
fn scan_frames_are_unchanged() {
    let req = ScanRequest {
        partition: Some(PartitionId(9)),
        proj: vec![3, 0],
        pred: Some(ColPredicate::IntGe { col: 4, min: 10 }),
        batch_rows: 512,
        shared: true,
    };
    check(
        "scan request",
        &req,
        ScanRequest::encode,
        ScanRequest::decode,
        "a1070000000900000200000200000003000000000100000004000000000000000a",
    );
    let reply = ScanReply {
        partition: PartitionId(3),
        snapshot: ScanSnapshot {
            prefix: 100,
            matched: 3,
            epoch_start: 7,
            epoch_end: 8,
            cols_epoch_start: 5,
            cols_epoch_end: 5,
            max_version: 41,
        },
        batch: batch(),
    };
    let snapshot = concat!(
        "0000000000000064000000000000000300000000000000070000000000000008",
        "000000000000000500000000000000050000000000000029",
    );
    check(
        "scan reply",
        &reply,
        ScanReply::encode,
        ScanReply::decode,
        &format!("a200000003{snapshot}{BATCH}"),
    );
    check(
        "scan error",
        &ScanError::new("no such partition"),
        ScanError::encode,
        ScanError::decode,
        "a300116e6f207375636820706172746974696f6e",
    );
}

#[test]
fn repl_frames_are_unchanged() {
    let frames = [
        (ReplMsg::Records(records()), format!("b1{RECORDS}")),
        (ReplMsg::Ack { lsn: 99 }, "b20000000000000063".into()),
        (
            ReplMsg::Heartbeat {
                term: 2,
                next_lsn: 100,
            },
            "b300000000000000020000000000000064".into(),
        ),
        (
            ReplMsg::CatchupFrom { lsn: 14 },
            "b4000000000000000e".into(),
        ),
    ];
    for (msg, golden) in frames {
        check("repl", &msg, ReplMsg::encode, ReplMsg::decode, &golden);
    }
}

#[test]
fn commit_frames_are_unchanged() {
    let frames = [
        (
            CommitMsg::Prepare {
                txn: TxnId(7),
                coord: 1,
                ops: vec![PrepOp {
                    table: TableId(2),
                    tuple: Tuple::new(vec![Value::Int(41), Value::str("remote")]),
                }],
            },
            concat!(
                "c10000000000000007000000010000000100000002",
                "0002010000000000000029030000000672656d6f7465",
            ),
        ),
        (
            CommitMsg::Vote {
                txn: TxnId(7),
                yes: true,
            },
            "c2000000000000000701",
        ),
        (
            CommitMsg::Decide {
                txn: TxnId(9),
                commit: false,
            },
            "c3000000000000000900",
        ),
        (CommitMsg::DecideAck { txn: TxnId(7) }, "c40000000000000007"),
        (
            CommitMsg::DecideQuery { txn: TxnId(9) },
            "c50000000000000009",
        ),
    ];
    for (msg, golden) in frames {
        check("commit", &msg, CommitMsg::encode, CommitMsg::decode, golden);
    }
}

#[test]
fn flow_frame_is_unchanged() {
    // `Flow` holds closures and has no `==`: compare it by its encoding.
    let flow = Flow::identity()
        .filter_col(ColPredicate::IntGe { col: 0, min: 3 })
        .project(vec![1, 0]);
    let golden = concat!(
        "0002",
        "01",
        "01000000000000000000000003",
        "02",
        "00020000000100000000",
    );
    assert_eq!(
        hex(&flow.encode().unwrap()),
        golden,
        "flow: encoding changed"
    );
    let back = Flow::decode(&unhex(golden)).unwrap();
    assert_eq!(hex(&back.encode().unwrap()), golden);
}

#[test]
fn serialized_wal_is_unchanged() {
    let wal = Wal::new();
    for r in records() {
        wal.append(r.txn, r.op);
    }
    assert_eq!(hex(&wal.serialize()), RECORDS, "wal: encoding changed");
    assert_eq!(Wal::deserialize(unhex(RECORDS)).unwrap(), records());
}
