//! Property tests for distributions, metrics, and the codec substrate.

use anydb_common::dist::{HotSpot, NuRand, Zipf};
use anydb_common::wire::assert_codec_contract;
use anydb_common::{ColumnBatch, DataType, Rid, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zipf samples always stay inside the domain, for any (n, theta).
    #[test]
    fn zipf_stays_in_domain(n in 1u64..5_000, theta in 0.0f64..0.999, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Hot-spot samples stay inside the domain and respect the hot set
    /// when the probability is 1.
    #[test]
    fn hotspot_stays_in_domain(n in 1u64..1_000, hot in 1u64..1_000, seed in any::<u64>()) {
        let hot = hot.min(n);
        let h = HotSpot::new(n, hot, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(h.sample(&mut rng) < hot.max(1));
        }
    }

    /// NURand respects its [x, y] bounds for all spec constants.
    #[test]
    fn nurand_stays_in_bounds(c in any::<u64>(), seed in any::<u64>()) {
        for (a, x, y) in [(255u64, 0u64, 999u64), (1023, 1, 3000), (8191, 1, 100_000)] {
            let n = NuRand::new(a, x, y, c);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                let v = n.sample(&mut rng);
                prop_assert!((x..=y).contains(&v));
            }
        }
    }

    /// RID packing is a bijection.
    #[test]
    fn rid_pack_roundtrips(t in any::<u32>(), p in any::<u32>(), s in any::<u32>()) {
        use anydb_common::{PartitionId, TableId};
        let rid = Rid::new(TableId(t), PartitionId(p), s);
        prop_assert_eq!(Rid::unpack(rid.pack()), rid);
    }

    /// Projection then concat never panics and preserves arity sums.
    #[test]
    fn tuple_ops_compose(vals in prop::collection::vec(any::<i64>(), 1..8)) {
        let t = Tuple::new(vals.iter().copied().map(Value::Int).collect());
        let all: Vec<usize> = (0..t.arity()).collect();
        let projected = t.project(&all);
        prop_assert_eq!(&projected, &t);
        let doubled = t.concat(&projected);
        prop_assert_eq!(doubled.arity(), t.arity() * 2);
    }

    /// Row ↔ column conversion roundtrips for arbitrary schemas and
    /// values (all three types, nulls included).
    #[test]
    fn column_batch_roundtrips_rows(seed in any::<u64>(), cols in 1usize..6, rows in 0usize..24) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        prop_assert_eq!(batch.rows(), tuples.len());
        prop_assert_eq!(batch.to_tuples(), tuples);
    }

    /// The columnar wire codec roundtrips the same arbitrary batches.
    #[test]
    fn column_codec_roundtrips(seed in any::<u64>(), cols in 1usize..6, rows in 0usize..24) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let enc = batch.encode();
        prop_assert_eq!(ColumnBatch::decode(&enc).unwrap(), batch);
    }

    /// The wire contract (every strict prefix rejected, trailing bytes
    /// rejected, every byte flip a value or a codec error) holds for
    /// arbitrary small batches, not just the fixed samples in `column.rs`.
    #[test]
    fn column_codec_rejects_truncation(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..12) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        assert_codec_contract(&[batch], ColumnBatch::encode, ColumnBatch::decode);
    }

    /// Corrupting a column's tag byte to an unknown value must be
    /// rejected, never misinterpreted.
    #[test]
    fn column_codec_rejects_unknown_tags(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..12, bad_tag in 4u8..255) {
        use bytes::Buf;
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let mut enc = batch.encode().chunk().to_vec();
        // The first column's tag sits right after the 6-byte header.
        enc[6] = bad_tag;
        let corrupted = bytes::Bytes::copy_from_slice(&enc);
        prop_assert_eq!(
            ColumnBatch::decode(&corrupted),
            Err(anydb_common::DbError::Codec("unknown column tag"))
        );
    }

    /// Zero-copy `slice` views are indistinguishable from materialized
    /// copies of the same rows: equal (logical `==` both ways), same
    /// tuples, and the same bytes on the wire.
    #[test]
    fn slice_views_equal_copying_semantics(
        seed in any::<u64>(), cols in 1usize..6, rows in 0usize..24,
        lo_frac in 0.0f64..1.0, hi_frac in 0.0f64..1.0,
    ) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let (mut lo, mut hi) = (
            (lo_frac * rows as f64) as usize,
            (hi_frac * rows as f64) as usize,
        );
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let view = batch.slice(lo, hi);
        let copy = ColumnBatch::from_tuples(&types, &tuples[lo..hi]).unwrap();
        prop_assert_eq!(&view, &copy);
        prop_assert_eq!(&copy, &view);
        prop_assert_eq!(view.to_tuples(), &tuples[lo..hi]);
        // A view encodes exactly like the copy would (nulls rebased, string
        // offsets rebased), so decode(encode(view)) == copy.
        prop_assert_eq!(ColumnBatch::decode(&view.encode()).unwrap(), copy);
    }

    /// Zero-copy `split` preserves the copying split's observable
    /// behavior: same part geometry, same rows in order, every part
    /// sharing the parent's buffers, and codec-roundtrippable.
    #[test]
    fn split_views_equal_copying_semantics(
        seed in any::<u64>(), cols in 1usize..5, rows in 0usize..40, batch_rows in 1usize..12,
    ) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let parts = batch.clone().split(batch_rows);
        prop_assert_eq!(parts.len(), rows.div_ceil(batch_rows));
        let mut glued = Vec::new();
        for part in &parts {
            prop_assert!(part.rows() <= batch_rows);
            for (pc, bc) in part.columns().iter().zip(batch.columns()) {
                prop_assert!(pc.shares_buffer_with(bc), "split copied a buffer");
            }
            prop_assert_eq!(ColumnBatch::decode(&part.encode()).unwrap(), part.clone());
            glued.extend(part.to_tuples());
        }
        prop_assert_eq!(glued, tuples);
    }

    /// Mutating one split view never leaks into its siblings or the
    /// parent (copy-on-write isolation of shared buffers).
    #[test]
    fn split_views_are_isolated_on_write(
        seed in any::<u64>(), cols in 1usize..4, rows in 2usize..24,
    ) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let batch_rows = (rows / 2).max(1);
        let mut parts = batch.clone().split(batch_rows);
        let victim = tuples[0].clone();
        parts[0].push_row(victim.values()).unwrap();
        // Parent and the other parts still glue back to the original.
        prop_assert_eq!(batch.to_tuples(), tuples.clone());
        let rest: Vec<_> = parts[1..].iter().flat_map(|p| p.to_tuples()).collect();
        prop_assert_eq!(rest, &tuples[batch_rows..]);
    }

    /// The predicate wire codec keeps the wire contract for arbitrary
    /// predicate trees.
    #[test]
    fn predicate_codec_roundtrips(seed in any::<u64>(), depth in 0usize..3) {
        use anydb_common::ColPredicate;
        let mut rng = StdRng::seed_from_u64(seed);
        let pred = arbitrary_predicate(&mut rng, depth);
        assert_codec_contract(&[pred], ColPredicate::encode, ColPredicate::decode);
    }

    /// Vectorized select and row-at-a-time matches agree for arbitrary
    /// predicate trees over arbitrary batches.
    #[test]
    fn predicate_select_matches_rows(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..24, depth in 0usize..3) {
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let pred = arbitrary_predicate(&mut rng, depth);
        let mut sel = Vec::new();
        pred.select(&batch, &mut sel);
        let by_row: Vec<u32> = (0..rows)
            .filter(|&i| pred.matches_tuple(&tuples[i]))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(sel, by_row);
    }

    /// The bitmap evaluator selects exactly the rows the appending
    /// evaluator selects, for arbitrary predicate trees over arbitrary
    /// batches (including out-of-range and mistyped columns).
    #[test]
    fn predicate_bitmap_select_matches_select(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..80, depth in 0usize..3) {
        use anydb_common::bitmap_ones;
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x515);
        let pred = arbitrary_predicate(&mut rng, depth);
        let mut sel = Vec::new();
        pred.select(&batch, &mut sel);
        let mut bits = Vec::new();
        pred.select_bitmap(&batch, &mut bits);
        let mut from_bits = Vec::new();
        bitmap_ones(&bits, &mut from_bits);
        prop_assert_eq!(from_bits, sel);
    }

    /// `covers` is a sound implication test: whenever it claims
    /// `p ⊇ q`, every row matching `q` matches `p`. (It is allowed to
    /// decline to claim — false negatives only cost a scan.)
    #[test]
    fn covers_implies_row_subset(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..40, dp in 0usize..3, dq in 0usize..3) {
        let (_, tuples) = arbitrary_columnar(seed, cols, rows);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0E5);
        let p = arbitrary_predicate(&mut rng, dp);
        let q = arbitrary_predicate(&mut rng, dq);
        if p.covers(&q) {
            for t in &tuples {
                prop_assert!(
                    !q.matches_tuple(t) || p.matches_tuple(t),
                    "{:?} claims to cover {:?} but missed {:?}", p, q, t
                );
            }
        }
    }

    /// `union_hull(p, q)` covers every row matched by `p` or `q`, for
    /// arbitrary predicate pairs (oracle: row-wise `matches`), and the
    /// syntactic `covers` test agrees it covers both inputs.
    #[test]
    fn union_hull_covers_both_inputs(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..40, dp in 0usize..3, dq in 0usize..3) {
        let (_, tuples) = arbitrary_columnar(seed, cols, rows);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4011);
        let p = arbitrary_predicate(&mut rng, dp);
        let q = arbitrary_predicate(&mut rng, dq);
        let hull = p.union_hull(&q);
        prop_assert!(hull.covers(&p), "{:?} must cover {:?}", hull, p);
        prop_assert!(hull.covers(&q), "{:?} must cover {:?}", hull, q);
        for t in &tuples {
            if p.matches_tuple(t) || q.matches_tuple(t) {
                prop_assert!(hull.matches_tuple(t), "{:?} missed a row of {:?} | {:?}", hull, p, q);
            }
        }
    }

    /// Refinement after a superset scan equals a direct scan: scanning
    /// with `union_hull(p, q)` and re-filtering the survivors with `p`
    /// yields exactly the rows a direct `p` scan yields — the invariant
    /// the shared-scan cache's superset serving and the shared Q3
    /// pipeline's fan-out both rest on.
    #[test]
    fn refine_after_superset_scan_equals_direct_scan(seed in any::<u64>(), cols in 1usize..5, rows in 0usize..40, dp in 0usize..3, dq in 0usize..3) {
        use anydb_common::bitmap_ones;
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA9);
        let p = arbitrary_predicate(&mut rng, dp);
        let q = arbitrary_predicate(&mut rng, dq);
        let hull = p.union_hull(&q);
        let mut hull_sel = Vec::new();
        hull.select(&batch, &mut hull_sel);
        let superset = batch.take(&hull_sel);
        let mut bits = Vec::new();
        p.select_bitmap(&superset, &mut bits);
        let mut refine_sel = Vec::new();
        bitmap_ones(&bits, &mut refine_sel);
        let refined = superset.take(&refine_sel);
        let mut direct_sel = Vec::new();
        p.select(&batch, &mut direct_sel);
        let direct = batch.take(&direct_sel);
        prop_assert_eq!(refined, direct);
    }

    /// The scan-request wire codec keeps the wire contract for arbitrary
    /// requests (every flag combination, arbitrary predicate trees).
    #[test]
    fn scan_request_codec_roundtrips(
        seed in any::<u64>(), depth in 0usize..3, has_pred in any::<bool>(),
        part in proptest::option::of(0u32..16), nproj in 0usize..6,
        batch_rows in 0usize..512, shared in any::<bool>(),
    ) {
        use anydb_common::{PartitionId, ScanRequest};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let req = ScanRequest {
            partition: part.map(PartitionId),
            proj: (0..nproj).map(|_| rng.random_range(0..32usize)).collect(),
            pred: has_pred.then(|| arbitrary_predicate(&mut rng, depth)),
            batch_rows,
            shared,
        };
        assert_codec_contract(&[req], ScanRequest::encode, ScanRequest::decode);
    }

    /// Corrupting a scan request's message tag or setting an unknown
    /// flag bit must be rejected, never misinterpreted — the request
    /// comes off a wire from another AC.
    #[test]
    fn scan_request_codec_rejects_unknown_tags_and_flags(
        seed in any::<u64>(), depth in 0usize..3, tag_xor in 1u8..255, flag_bit in 3u32..8,
    ) {
        use anydb_common::ScanRequest;
        let mut rng = StdRng::seed_from_u64(seed);
        let req = ScanRequest {
            partition: None,
            proj: vec![0, 2],
            pred: Some(arbitrary_predicate(&mut rng, depth)),
            batch_rows: 64,
            shared: true,
        };
        use bytes::Buf;
        let mut enc = req.encode().chunk().to_vec();
        enc[0] ^= tag_xor;
        prop_assert!(ScanRequest::decode(&bytes::Bytes::copy_from_slice(&enc)).is_err());
        let mut enc = req.encode().chunk().to_vec();
        enc[1] |= 1 << flag_bit; // a flag this codec version doesn't know
        prop_assert!(ScanRequest::decode(&bytes::Bytes::copy_from_slice(&enc)).is_err());
    }

    /// The scan-reply wire codec roundtrips arbitrary (snapshot, batch)
    /// payloads, rejects every strict prefix, and rejects a corrupted
    /// message tag. (Byte flips are enumerated on the batch payload by
    /// `column_codec_rejects_truncation` and on whole replies in `scan.rs`.)
    #[test]
    fn scan_reply_codec_roundtrips(
        seed in any::<u64>(), cols in 1usize..5, rows in 0usize..16, part in 0u32..8,
    ) {
        use anydb_common::{PartitionId, ScanReply, ScanSnapshot};
        use rand::Rng;
        let (types, tuples) = arbitrary_columnar(seed, cols, rows);
        let batch = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E1);
        let snapshot = ScanSnapshot {
            prefix: rng.random_range(0..1_000_000usize),
            matched: rng.random_range(0..1_000_000usize),
            epoch_start: rng.random(),
            epoch_end: rng.random(),
            cols_epoch_start: rng.random(),
            cols_epoch_end: rng.random(),
            max_version: rng.random(),
        };
        let reply = ScanReply { partition: PartitionId(part), snapshot, batch };
        let enc = reply.encode();
        prop_assert_eq!(&ScanReply::decode(&enc).unwrap(), &reply);
        for cut in 0..enc.len() {
            prop_assert!(
                ScanReply::decode(&enc.slice(0..cut)).is_err(),
                "reply decode succeeded at cut {} of {}", cut, enc.len()
            );
        }
        use bytes::Buf;
        let mut corrupted = enc.chunk().to_vec();
        corrupted[0] ^= 0x11;
        prop_assert!(ScanReply::decode(&bytes::Bytes::copy_from_slice(&corrupted)).is_err());
    }
}

/// Deterministically builds an arbitrary predicate tree of the given
/// depth (column positions may exceed the batch arity — predicates must
/// treat that as "no match", never panic).
fn arbitrary_predicate(rng: &mut StdRng, depth: usize) -> anydb_common::ColPredicate {
    use anydb_common::ColPredicate;
    use rand::Rng;
    let leaf = depth == 0 || rng.random_bool(0.5);
    if leaf {
        match rng.random_range(0..3u32) {
            0 => ColPredicate::IntGe {
                col: rng.random_range(0..6usize),
                min: rng.random_range(-500_000..500_000i64),
            },
            1 => {
                let a = rng.random_range(-500_000..500_000i64);
                let b = rng.random_range(-500_000..500_000i64);
                ColPredicate::IntBetween {
                    col: rng.random_range(0..6usize),
                    min: a.min(b),
                    max: a.max(b),
                }
            }
            _ => {
                let len = rng.random_range(0..3usize);
                let prefix: String = (0..len)
                    .map(|_| char::from(b'a' + rng.random_range(0..4u8)))
                    .collect();
                ColPredicate::StrPrefix {
                    col: rng.random_range(0..6usize),
                    prefix,
                }
            }
        }
    } else {
        let n = rng.random_range(0..3usize);
        ColPredicate::And(
            (0..n)
                .map(|_| arbitrary_predicate(rng, depth - 1))
                .collect(),
        )
    }
}

/// Deterministically builds an arbitrary columnar workload: `cols` column
/// types and `rows` tuples of matching values, with ~1 in 6 values NULL.
fn arbitrary_columnar(seed: u64, cols: usize, rows: usize) -> (Vec<DataType>, Vec<Tuple>) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let types: Vec<DataType> = (0..cols)
        .map(|_| match rng.random_range(0..3u32) {
            0 => DataType::Int,
            1 => DataType::Float,
            _ => DataType::Str,
        })
        .collect();
    let tuples: Vec<Tuple> = (0..rows)
        .map(|_| {
            types
                .iter()
                .map(|ty| {
                    if rng.random_bool(1.0 / 6.0) {
                        return Value::Null;
                    }
                    match ty {
                        DataType::Int => Value::Int(rng.random_range(-1_000_000..1_000_000i64)),
                        DataType::Float => {
                            Value::Float(rng.random_range(0..1_000_000i64) as f64 / 128.0)
                        }
                        DataType::Str => {
                            let len = rng.random_range(0..12usize);
                            let s: String = (0..len)
                                .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
                                .collect();
                            Value::str(s)
                        }
                    }
                })
                .collect()
        })
        .collect();
    (types, tuples)
}
