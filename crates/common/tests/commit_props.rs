//! Property tests hardening the cross-shard commit codec the way the
//! WAL and scan codecs are hardened (`wal_props.rs` conventions): every
//! message roundtrips exactly, *no* strict prefix decodes, and no
//! byte flip may ever panic the decoder. A shard node decodes whatever
//! bytes a faulty inter-shard link delivers; its only defenses are
//! `DbError::Codec` rejections.

use anydb_common::commit::{CommitMsg, PrepOp};
use anydb_common::wire::{self, assert_codec_contract};
use anydb_common::{DbError, TableId, Tuple, TxnId, Value};
use bytes::{Buf, Bytes};
use proptest::prelude::*;

/// Builds one message whose variant and payload shape are driven by
/// `shape_seed`, mixing all five tags, empty and multi-op prepares, and
/// both bool polarities.
fn build_msg(shape_seed: u64) -> CommitMsg {
    let txn = TxnId(shape_seed % 11);
    match shape_seed % 6 {
        0 | 1 => {
            let n = (shape_seed / 6) as usize % 4;
            let ops = (0..n)
                .map(|i| PrepOp {
                    table: TableId((i % 3) as u32),
                    tuple: Tuple::new(vec![
                        Value::Int(shape_seed as i64 ^ i as i64),
                        if i.is_multiple_of(2) {
                            Value::str("line")
                        } else {
                            Value::Null
                        },
                    ]),
                })
                .collect();
            CommitMsg::Prepare {
                txn,
                coord: (shape_seed % 5) as u32,
                ops,
            }
        }
        2 => CommitMsg::Vote {
            txn,
            yes: shape_seed.is_multiple_of(2),
        },
        3 => CommitMsg::Decide {
            txn,
            commit: shape_seed.is_multiple_of(2),
        },
        4 => CommitMsg::DecideAck { txn },
        _ => CommitMsg::DecideQuery { txn },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Encode/decode is lossless for arbitrary message shapes.
    #[test]
    fn commit_messages_roundtrip(shape in any::<u64>()) {
        let msg = build_msg(shape);
        prop_assert_eq!(CommitMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Every strict prefix of an encoded message is rejected with an
    /// error — never a panic, never a silent partial parse.
    #[test]
    fn every_strict_prefix_is_rejected(shape in any::<u64>()) {
        let bytes = build_msg(shape).encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                CommitMsg::decode(&bytes.slice(0..cut)).is_err(),
                "prefix of {} bytes decoded",
                cut
            );
        }
    }

    /// Appending any byte to a well-formed frame is rejected: a frame is
    /// exactly one message, so trailing garbage means a framing bug
    /// upstream and must surface as corruption, not be ignored.
    #[test]
    fn trailing_bytes_are_rejected(shape in any::<u64>(), extra in any::<u8>()) {
        let bytes = build_msg(shape).encode();
        let mut long = bytes.chunk().to_vec();
        long.push(extra);
        prop_assert_eq!(
            CommitMsg::decode(&Bytes::copy_from_slice(&long)),
            Err(DbError::Codec(wire::TRAILING))
        );
    }
}

/// Single-byte corruption anywhere in a frame either still decodes (the
/// flipped byte was payload, e.g. a txn id bit) or is rejected with a
/// `DbError::Codec` — it never panics the decoder. Enumerated, not
/// sampled: every value at every byte of every shape `build_msg` makes
/// (all five tags × 0–3 staged ops). Flips landing on the tag byte cover
/// the unknown-tag space; flips on a bool byte cover the strict 0/1 check.
#[test]
fn bitflips_never_panic() {
    let every_shape: Vec<CommitMsg> = (0..24).map(build_msg).collect();
    assert_codec_contract(&every_shape, CommitMsg::encode, CommitMsg::decode);
}
