//! Property tests for the streaming substrate.

use anydb_common::{ColPredicate, ColumnBatch, DataType, Tuple, Value};
use anydb_stream::adaptive::AdaptiveBatch;
use anydb_stream::flow::Flow;
use anydb_stream::inbox::Inbox;
use anydb_stream::link::{LinkSpec, SimLink};
use anydb_stream::spsc::{spsc_channel, PopState};
use crossbeam::channel::{unbounded, TryRecvError};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Column-batch splitting conserves every tuple in order, in batches of at
    /// most `rows` rows.
    #[test]
    fn batch_split_conserves(values in prop::collection::vec(any::<i64>(), 0..200), rows in 1usize..64) {
        let tuples: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![Value::Int(*v)])).collect();
        let batch = ColumnBatch::from_tuples(&[DataType::Int], &tuples).unwrap();
        let batches = batch.split(rows);
        prop_assert!(batches.iter().all(|b| b.rows() <= rows));
        let rejoined: Vec<Tuple> = batches.iter().flat_map(ColumnBatch::to_tuples).collect();
        prop_assert_eq!(rejoined, tuples);
    }

    /// The zero-copy producer path conserves data: a columnar scan's
    /// worth split into view batches and shipped through a `ColFlowSender`
    /// delivers the same rows in order, and models the same wire bytes as
    /// the views themselves report.
    #[test]
    fn col_flow_split_views_conserve_rows_and_bytes(
        values in prop::collection::vec(any::<i64>(), 0..120), batch_rows in 1usize..48,
    ) {
        use anydb_stream::flow::ColFlowSender;
        let tuples: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![Value::Int(*v), Value::str("p")])).collect();
        let batch = ColumnBatch::from_tuples(&[DataType::Int, DataType::Str], &tuples).unwrap();
        let expected_bytes: usize = batch.clone().split(batch_rows).iter().map(ColumnBatch::bytes).sum();
        let (tx, mut rx) = SimLink::channel::<ColumnBatch>(LinkSpec::instant(), 1 << 12);
        let mut sender = ColFlowSender::new(tx, Flow::identity());
        let sent = sender.send_split_blocking(batch, batch_rows).unwrap();
        prop_assert_eq!(sent, values.len().div_ceil(batch_rows));
        drop(sender);
        let mut got = Vec::new();
        let mut got_bytes = 0usize;
        while let Ok(b) = rx.try_recv() {
            got_bytes += b.bytes();
            got.extend(b.to_tuples());
        }
        prop_assert_eq!(got, tuples);
        prop_assert_eq!(got_bytes, expected_bytes);
    }

    /// Flows applied to zero-copy views give the same answer as flows
    /// applied to materialized copies of the same rows.
    #[test]
    fn flows_on_views_equal_flows_on_copies(
        values in prop::collection::vec(any::<i64>(), 1..80), threshold in -50i64..50,
    ) {
        let tuples: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![Value::Int(*v)])).collect();
        let batch = ColumnBatch::from_tuples(&[DataType::Int], &tuples).unwrap();
        let flow = Flow::identity().filter_col(ColPredicate::IntBetween { col: 0, min: -threshold.abs(), max: threshold.abs() });
        let (lo, hi) = (values.len() / 4, values.len() - values.len() / 4);
        let view = batch.slice(lo, hi);
        let copy = ColumnBatch::from_tuples(&[DataType::Int], &tuples[lo..hi]).unwrap();
        prop_assert_eq!(flow.apply_columns(view), flow.apply_columns(copy));
    }

    /// Flows are order-preserving filters: output is a subsequence of the
    /// input and exactly the tuples matching the predicate.
    #[test]
    fn flow_filter_is_exact(values in prop::collection::vec(any::<i64>(), 0..100), threshold in any::<i64>()) {
        let flow = Flow::identity().filter_col(ColPredicate::IntGe { col: 0, min: threshold });
        let tuples: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![Value::Int(*v)])).collect();
        let out = flow.apply_columns(ColumnBatch::from_tuples(&[DataType::Int], &tuples).unwrap());
        let got: Vec<i64> = out.to_tuples().iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let expected: Vec<i64> = values.iter().copied().filter(|v| *v >= threshold).collect();
        prop_assert_eq!(got, expected);
    }

    /// Rows ↔ `ColumnBatch` conversion roundtrips (values incl. nulls),
    /// and for null-free batches of a few rows or more the columnar wire
    /// model beats the row model (Σ `Tuple::wire_size`) — the point of
    /// one tag per column. (With nulls the row codec can win: it spends
    /// 1 byte per null where the columnar layout packs an 8-byte
    /// placeholder.)
    #[test]
    fn column_batch_roundtrips_row_batch(
        rows in prop::collection::vec((any::<i64>(), prop::option::of(0u8..26), any::<bool>()), 0..80),
    ) {
        let tuples: Vec<Tuple> = rows.iter().map(|(i, s, null_float)| {
            Tuple::new(vec![
                Value::Int(*i),
                match s {
                    Some(c) => Value::str(String::from(char::from(b'a' + c))),
                    None => Value::Null,
                },
                if *null_float { Value::Null } else { Value::Float(*i as f64) },
            ])
        }).collect();
        let types = [DataType::Int, DataType::Str, DataType::Float];
        let cols = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        prop_assert_eq!(cols.rows(), tuples.len());
        prop_assert_eq!(&cols.to_tuples(), &tuples);
        let row_bytes: usize = tuples.iter().map(Tuple::wire_size).sum();
        let has_nulls = tuples.iter().any(|t| t.values().iter().any(Value::is_null));
        if !has_nulls && tuples.len() >= 4 {
            prop_assert!(cols.bytes() < row_bytes);
        }
    }

    /// A columnar flow (vectorized filter + projection) agrees with the
    /// same stages applied tuple by tuple, for any threshold.
    #[test]
    fn columnar_flow_agrees_with_row_flow(values in prop::collection::vec(any::<i64>(), 0..100), threshold in any::<i64>()) {
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntGe { col: 0, min: threshold })
            .project(vec![1]);
        let tuples: Vec<Tuple> = values
            .iter()
            .map(|v| Tuple::new(vec![Value::Int(*v), Value::Int(v.wrapping_mul(3))]))
            .collect();
        let cols = ColumnBatch::from_tuples(&[DataType::Int, DataType::Int], &tuples).unwrap();
        let pred = ColPredicate::IntGe { col: 0, min: threshold };
        let row_out: Vec<Tuple> = tuples.iter().filter(|t| pred.matches_tuple(t)).map(|t| t.project(&[1])).collect();
        let col_out = flow.apply_columns(cols);
        prop_assert_eq!(col_out.to_tuples(), row_out);
    }

    /// Bulk SPSC transfer round-trips any payload exactly once, in order,
    /// for any ring capacity and any interleaving of bulk push/pop sizes —
    /// including partial batches that straddle the ring's wrap-around.
    #[test]
    fn spsc_bulk_roundtrip(
        cap in 1usize..17,
        payload in prop::collection::vec(any::<i64>(), 0..300),
        sizes in prop::collection::vec((1usize..9, 1usize..9), 1..64),
    ) {
        let (mut tx, mut rx) = spsc_channel::<i64>(cap);
        let mut sent = 0usize;
        let mut got: Vec<i64> = Vec::new();
        let mut out: Vec<i64> = Vec::new();
        let mut step = 0usize;
        // Alternate bulk pushes and bounded bulk pops until the payload is
        // fully transferred; sizes deliberately disagree with `cap` so
        // partial batches and wrap-around occur constantly.
        while got.len() < payload.len() {
            let (push_n, pop_n) = sizes[step % sizes.len()];
            step += 1;
            if sent < payload.len() {
                let hi = (sent + push_n).min(payload.len());
                sent += tx.push_slice(&payload[sent..hi]).unwrap();
            }
            out.clear();
            match rx.pop_chunk(&mut out, pop_n) {
                Ok(n) => {
                    prop_assert!(n > 0 && n <= pop_n);
                    prop_assert_eq!(n, out.len());
                    got.extend_from_slice(&out);
                }
                Err(PopState::Empty) => {}
                Err(PopState::Disconnected) => unreachable!("producer alive"),
            }
        }
        prop_assert_eq!(got, payload);
    }

    /// A consumer disconnect mid-batch loses nothing that was accepted:
    /// push_slice reports Disconnected without taking elements, and
    /// everything accepted earlier is dropped safely with the ring.
    #[test]
    fn spsc_disconnect_mid_batch(
        cap in 1usize..16,
        first in prop::collection::vec(any::<u32>(), 0..32),
        second in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let (mut tx, rx) = spsc_channel::<u32>(cap);
        let taken = tx.push_slice(&first).unwrap();
        prop_assert_eq!(taken, first.len().min(cap));
        drop(rx);
        prop_assert_eq!(tx.push_slice(&second), Err(PopState::Disconnected));
        let mut rest = second.clone();
        prop_assert_eq!(tx.push_drain(&mut rest), Err(PopState::Disconnected));
        prop_assert_eq!(rest.len(), second.len());
    }

    /// Inbox bulk send/drain conserves every event and preserves order,
    /// for any chunking on either side; a drain after the last sender
    /// drops still surfaces queued events before reporting disconnect.
    #[test]
    fn inbox_bulk_roundtrip(
        payload in prop::collection::vec(any::<i64>(), 0..300),
        send_chunk in 1usize..33,
        drain_chunk in 1usize..33,
    ) {
        let (tx, rx) = Inbox::<i64>::new();
        for chunk in payload.chunks(send_chunk) {
            tx.send_many(chunk.iter().copied());
        }
        drop(tx);
        let mut got = Vec::new();
        loop {
            match rx.drain_into(&mut got, drain_chunk) {
                Ok(n) => prop_assert!(n > 0 && n <= drain_chunk),
                Err(PopState::Disconnected) => break,
                Err(PopState::Empty) => unreachable!("sender already dropped"),
            }
        }
        prop_assert_eq!(got, payload);
    }

    /// Bulk channel receive (`try_recv_many`) returns exactly what a
    /// sequence of singleton `try_recv`s would: same elements, same
    /// order, no loss, no duplication — for any interleaving of the two
    /// receive forms and any chunk sizes.
    #[test]
    fn try_recv_many_matches_singleton_try_recv(
        payload in prop::collection::vec(any::<i64>(), 0..300),
        steps in prop::collection::vec((any::<bool>(), 1usize..17), 1..64),
    ) {
        let (tx, rx) = unbounded();
        for v in &payload {
            tx.send(*v).unwrap();
        }
        drop(tx);
        let mut got: Vec<i64> = Vec::new();
        let mut out: Vec<i64> = Vec::new();
        let mut step = 0usize;
        loop {
            let (bulk, max) = steps[step % steps.len()];
            step += 1;
            if bulk {
                out.clear();
                match rx.try_recv_many(&mut out, max) {
                    Ok(n) => {
                        prop_assert!(n > 0 && n <= max);
                        prop_assert_eq!(n, out.len());
                        got.extend_from_slice(&out);
                    }
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => unreachable!("sender dropped"),
                }
            } else {
                match rx.try_recv() {
                    Ok(v) => got.push(v),
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => unreachable!("sender dropped"),
                }
            }
        }
        prop_assert_eq!(got, payload);
    }

    /// The adaptive batch controller never leaves its `[min, max]` range,
    /// whatever depth sequence it observes.
    #[test]
    fn adaptive_batch_stays_in_bounds(
        min in 1usize..16,
        span in 0usize..9,
        depths in prop::collection::vec(any::<usize>(), 0..200),
    ) {
        let max = min << span; // power-of-two span keeps ranges honest
        let mut ctrl = AdaptiveBatch::new(min, max);
        for d in depths {
            let cur = ctrl.observe(d);
            prop_assert!(cur >= min && cur <= max, "current {cur} outside [{min}, {max}]");
            prop_assert_eq!(cur, ctrl.current());
        }
    }

    /// Whatever state load drove it to, a drained (depth 0) queue decays
    /// the controller back to its floor within log2(max) observations —
    /// the idle-latency guarantee.
    #[test]
    fn adaptive_batch_decays_to_floor_when_idle(
        max in 1usize..4096,
        depths in prop::collection::vec(any::<usize>(), 0..64),
    ) {
        let mut ctrl = AdaptiveBatch::new(1, max);
        for d in depths {
            ctrl.observe(d);
        }
        // usize::BITS zero-samples bound log2 of any reachable state.
        for _ in 0..usize::BITS {
            ctrl.observe(0);
        }
        prop_assert_eq!(ctrl.current(), 1);
    }

    /// Links deliver every message exactly once in order for arbitrary
    /// latency/bandwidth settings (within quick test ranges).
    #[test]
    fn link_is_fifo_and_lossless(
        n in 1usize..64,
        latency_us in 0u64..200,
        bw in prop::option::of(1e6f64..1e9),
    ) {
        let spec = LinkSpec {
            latency: Duration::from_micros(latency_us),
            bytes_per_sec: bw.unwrap_or(f64::INFINITY),
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel::<usize>(spec, n.max(1));
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                tx.send_blocking(i, 64).unwrap();
            }
        });
        for i in 0..n {
            prop_assert_eq!(rx.recv_blocking(), Some(i));
        }
        prop_assert_eq!(rx.recv_blocking(), None);
        producer.join().unwrap();
    }
}
