//! DPI-style flows: stream transformations applied *en route*.
//!
//! The paper (§4, Figure 6) observes that with DPI \[1\] the network itself
//! acts as a co-processor: data beams across InfiniBand arrive pre-filtered
//! and pre-placed, making the disaggregated architecture *faster* than the
//! aggregated one. A [`Flow`] is an ordered list of relational stages
//! (filter, project) applied to every column batch a [`ColFlowSender`]
//! ships, or that a remote scan server applies to its replies.
//!
//! Cost model: on an `offload` link (see [`crate::link::LinkSpec`]) the
//! stage CPU time is charged to nobody — the NIC does it. On a non-offload
//! link the sending thread pays for the processing, which is exactly what
//! happens when it runs the stages.

use anydb_common::wire::{self, WireRead};
use anydb_common::{ColPredicate, ColumnBatch, DbError, DbResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::link::LinkSender;
use crate::spsc::PushError;

/// Wire tag of a [`FlowStage::FilterCol`] stage.
const FLOW_FILTER_COL: u8 = 1;
/// Wire tag of a [`FlowStage::Project`] stage.
const FLOW_PROJECT: u8 = 2;

/// One transformation stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowStage {
    /// Keep only rows matching a columnar predicate, evaluated vectorized
    /// into a selection vector. This is also the form a scan can push
    /// down (see `anydb_storage`'s `scan_columns`).
    FilterCol(ColPredicate),
    /// Project onto the given column indices (per-column copy).
    Project(Vec<usize>),
}

/// An ordered pipeline of stages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Flow {
    stages: Vec<FlowStage>,
}

impl Flow {
    /// The identity flow (ships batches unchanged).
    pub fn identity() -> Self {
        Self::default()
    }

    /// Appends a columnar (vectorizable) filter stage.
    pub fn filter_col(mut self, pred: ColPredicate) -> Self {
        self.stages.push(FlowStage::FilterCol(pred));
        self
    }

    /// Appends a projection stage.
    pub fn project(mut self, cols: Vec<usize>) -> Self {
        self.stages.push(FlowStage::Project(cols));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True for the identity flow.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages, in application order.
    pub fn stages(&self) -> &[FlowStage] {
        &self.stages
    }

    /// Encodes the flow spec for the wire (DESIGN.md §8): a u16 stage
    /// count, then one tagged stage each — `FilterCol` through the
    /// [`ColPredicate`] codec, `Project` as a u16-counted list of u32
    /// column positions.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(self.stages.len() <= u16::MAX as usize);
        buf.put_u16(self.stages.len() as u16);
        for stage in &self.stages {
            match stage {
                FlowStage::FilterCol(pred) => {
                    buf.put_u8(FLOW_FILTER_COL);
                    pred.encode_into(buf);
                }
                FlowStage::Project(cols) => {
                    debug_assert!(cols.len() <= u16::MAX as usize);
                    buf.put_u8(FLOW_PROJECT);
                    buf.put_u16(cols.len() as u16);
                    for &c in cols {
                        buf.put_u32(c as u32);
                    }
                }
            }
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one flow spec, advancing `buf` past the consumed bytes.
    /// Rejects truncation and unknown stage tags.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<Flow> {
        let n = buf.read_u16()?;
        // The smallest stage is an empty projection: tag + u16 count.
        let n = buf.count(n, 3, "flow stage count exceeds payload")?;
        let mut stages = Vec::with_capacity(n);
        for _ in 0..n {
            stages.push(match buf.read_u8()? {
                FLOW_FILTER_COL => FlowStage::FilterCol(ColPredicate::decode_from(buf)?),
                FLOW_PROJECT => {
                    let ncols = buf.read_u16()?;
                    let ncols = buf.count(ncols, 4, "flow projection count exceeds payload")?;
                    let cols = (0..ncols).map(|_| Ok(buf.read_u32()? as usize));
                    FlowStage::Project(cols.collect::<DbResult<_>>()?)
                }
                _ => return Err(DbError::Codec("unknown flow stage tag")),
            });
        }
        Ok(Flow { stages })
    }

    /// Decodes a standalone frame holding exactly one flow spec.
    pub fn decode(bytes: &Bytes) -> DbResult<Flow> {
        wire::decode_exact(bytes, Self::decode_from)
    }

    /// Applies all stages to a column batch: filters run vectorized
    /// (selection vector + gather) and projections copy whole columns.
    pub fn apply_columns(&self, batch: ColumnBatch) -> ColumnBatch {
        let mut batch = batch;
        let mut sel: Vec<u32> = Vec::new();
        for stage in &self.stages {
            match stage {
                FlowStage::FilterCol(pred) => {
                    sel.clear();
                    pred.select(&batch, &mut sel);
                    if sel.len() != batch.rows() {
                        batch = batch.take(&sel);
                    }
                }
                FlowStage::Project(cols) => batch = batch.project(cols),
            }
        }
        batch
    }
}

/// A link sender that pushes every [`ColumnBatch`] through a [`Flow`]
/// first, modeling the *post-flow* columnar wire size (one tag per
/// column, values packed).
///
/// This is the DPI advantage: less data crosses the wire, and on offload
/// links the filtering itself is free.
pub struct ColFlowSender {
    link: LinkSender<ColumnBatch>,
    flow: Flow,
}

impl ColFlowSender {
    /// Wraps a columnar link sender with a flow.
    pub fn new(link: LinkSender<ColumnBatch>, flow: Flow) -> Self {
        Self { link, flow }
    }

    /// Whether the underlying link offloads flow processing.
    pub fn is_offloaded(&self) -> bool {
        self.link.spec().offload
    }

    /// Applies the flow and ships the batch. Empty results are still
    /// shipped so consumers can count batches for end-of-stream
    /// accounting.
    pub fn send(&mut self, batch: ColumnBatch) -> Result<(), PushError<ColumnBatch>> {
        let out = self.flow.apply_columns(batch);
        let bytes = out.bytes();
        self.link.send(out, bytes)
    }

    /// Blocking variant of [`ColFlowSender::send`].
    pub fn send_blocking(&mut self, batch: ColumnBatch) -> Result<(), ColumnBatch> {
        let out = self.flow.apply_columns(batch);
        let bytes = out.bytes();
        self.link.send_blocking(out, bytes)
    }

    /// Bulk path: splits a scan's worth of columns into `batch_rows`-row
    /// wire batches, applies the flow to each, and ships the group through
    /// [`LinkSender::send_pipelined_blocking`] — one clock read and bulk
    /// ring crossings, but each batch keeps its own serialized wire
    /// transfer, so receivers still overlap consumption with the rest of
    /// the transfer (the pipelining Figure 6 depends on). The split is
    /// **zero-copy** — each wire batch is an offset/length view over the
    /// scan's `Arc`-shared buffers, so with an identity flow nothing on
    /// this path memcpys a value, at any batch size. Returns the number
    /// of batches shipped, or `Err` with how many were unsent when the
    /// receiver vanished.
    pub fn send_split_blocking(
        &mut self,
        batch: ColumnBatch,
        batch_rows: usize,
    ) -> Result<usize, usize> {
        let batches: Vec<(ColumnBatch, usize)> = batch
            .split(batch_rows)
            .into_iter()
            .map(|b| {
                let out = self.flow.apply_columns(b);
                let bytes = out.bytes();
                (out, bytes)
            })
            .collect();
        let n = batches.len();
        self.link.send_pipelined_blocking(batches)?;
        Ok(n)
    }

    /// Consumes the sender, closing the stream.
    pub fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkSpec, SimLink};
    use anydb_common::{DataType, Tuple, Value};

    const TYPES: [DataType; 2] = [DataType::Int, DataType::Str];

    fn t2(a: i64, s: &str) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::str(s)])
    }

    fn cols(tuples: &[Tuple]) -> ColumnBatch {
        ColumnBatch::from_tuples(&TYPES, tuples).unwrap()
    }

    /// The per-tuple meaning of a flow, as an independent oracle: each
    /// filter keeps the tuples its predicate matches, each projection
    /// rebuilds every tuple.
    fn per_tuple(flow: &Flow, mut tuples: Vec<Tuple>) -> Vec<Tuple> {
        for stage in flow.stages() {
            match stage {
                FlowStage::FilterCol(p) => tuples.retain(|t| p.matches_tuple(t)),
                FlowStage::Project(c) => tuples = tuples.iter().map(|t| t.project(c)).collect(),
            }
        }
        tuples
    }

    #[test]
    fn identity_flow_passes_through() {
        let b = cols(&[t2(1, "a")]);
        assert_eq!(Flow::identity().apply_columns(b.clone()), b);
    }

    #[test]
    fn filter_stage_drops_tuples() {
        let flow = Flow::identity().filter_col(ColPredicate::IntGe { col: 0, min: 2 });
        let out = flow.apply_columns(cols(&[t2(1, "a"), t2(2, "b"), t2(3, "c")]));
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn project_stage_narrows_tuples() {
        let flow = Flow::identity().project(vec![1]);
        let out = flow.apply_columns(cols(&[t2(1, "a")]));
        assert_eq!(out.to_tuples()[0].values(), &[Value::str("a")]);
    }

    #[test]
    fn stages_compose_in_order() {
        // The filter reads column 0, which the projection then drops:
        // run in the other order, it would address the string column.
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntBetween {
                col: 0,
                min: 2,
                max: 4,
            })
            .project(vec![1]);
        let out = flow.apply_columns(cols(&[t2(1, "a"), t2(2, "b"), t2(4, "d")]));
        assert_eq!(out.rows(), 2);
        assert_eq!(out.to_tuples()[0].arity(), 1);
    }

    #[test]
    fn flow_reduces_wire_bytes() {
        let flow = Flow::identity().filter_col(ColPredicate::IntBetween {
            col: 0,
            min: 0,
            max: 0,
        });
        let big = cols(&(0..100).map(|i| t2(i, "payload")).collect::<Vec<_>>());
        let out = flow.apply_columns(big.clone());
        assert!(out.bytes() < big.bytes() / 10);
    }

    #[test]
    fn apply_maintains_bytes_incrementally() {
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntGe { col: 0, min: 5 })
            .project(vec![1]);
        let out = flow.apply_columns(cols(&(0..10).map(|i| t2(i, "abc")).collect::<Vec<_>>()));
        // The gathered, projected batch reports the size a freshly built
        // batch of the same rows would.
        let fresh = ColumnBatch::from_tuples(&[DataType::Str], &out.to_tuples()).unwrap();
        assert_eq!(out.rows(), 5);
        assert_eq!(out.bytes(), fresh.bytes());
    }

    #[test]
    fn columnar_and_row_application_agree() {
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntGe { col: 0, min: 2 })
            .project(vec![1]);
        let tuples: Vec<Tuple> = (0..6).map(|i| t2(i, &format!("s{i}"))).collect();
        let col_out = flow.apply_columns(cols(&tuples));
        let row_out = per_tuple(&flow, tuples);
        assert_eq!(col_out.to_tuples(), row_out);
        // Same surviving rows, cheaper columnar wire encoding.
        assert!(col_out.bytes() <= row_out.iter().map(Tuple::wire_size).sum());
    }

    #[test]
    fn range_and_conjunction_filters_agree_across_representations() {
        let flow = Flow::identity().filter_col(ColPredicate::And(vec![
            ColPredicate::IntBetween {
                col: 0,
                min: 1,
                max: 4,
            },
            ColPredicate::StrPrefix {
                col: 1,
                prefix: "s".into(),
            },
        ]));
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| t2(i, if i % 2 == 0 { "skip-me" } else { "other" }))
            .collect();
        let col_out = flow.apply_columns(cols(&tuples));
        assert_eq!(col_out.to_tuples(), per_tuple(&flow, tuples));
        assert_eq!(col_out.rows(), 2); // rows 2 and 4
    }

    #[test]
    fn col_flow_sender_ships_post_flow_size() {
        let (tx, mut rx) = SimLink::channel::<ColumnBatch>(LinkSpec::instant(), 8);
        let mut sender = ColFlowSender::new(
            tx,
            Flow::identity().filter_col(ColPredicate::IntGe { col: 0, min: 5 }),
        );
        assert!(!sender.is_offloaded());
        let tuples: Vec<Tuple> = (0..10).map(|i| t2(i, "x")).collect();
        assert_eq!(sender.send_split_blocking(cols(&tuples), 4), Ok(3));
        let mut rows = 0;
        while let Ok(b) = rx.try_recv() {
            rows += b.rows();
        }
        assert_eq!(rows, 5);
    }

    #[test]
    fn flow_sender_ships_post_flow_size() {
        // The single-batch send: the filtered batch is what arrives.
        let (tx, mut rx) = SimLink::channel::<ColumnBatch>(LinkSpec::instant(), 8);
        let flow = Flow::identity().filter_col(ColPredicate::IntBetween {
            col: 0,
            min: 0,
            max: 1,
        });
        let mut sender = ColFlowSender::new(tx, flow.clone());
        let batch = cols(&[t2(1, "a"), t2(5, "b")]);
        sender.send(batch.clone()).unwrap();
        let got = rx.try_recv().unwrap();
        assert_eq!(got.rows(), 1);
        assert_eq!(got, flow.apply_columns(batch));
    }

    #[test]
    fn flow_codec_roundtrips_by_behavior() {
        // The decoded flow is the original, and transforms batches
        // exactly like it.
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntGe { col: 0, min: 3 })
            .project(vec![1, 0])
            .filter_col(ColPredicate::StrPrefix {
                col: 0,
                prefix: "x".into(),
            });
        let dec = Flow::decode(&flow.encode()).unwrap();
        assert_eq!(dec, flow);
        let batch = cols(&(0..8).map(|i| t2(i, "x")).collect::<Vec<_>>());
        assert_eq!(
            dec.apply_columns(batch.clone()),
            flow.apply_columns(batch.clone())
        );
        assert_eq!(dec.apply_columns(batch).rows(), 5);
        // The identity flow is two bytes of stage count.
        let identity = Flow::identity().encode();
        assert_eq!(identity.len(), 2);
        assert!(Flow::decode(&identity).unwrap().is_empty());
    }

    #[test]
    fn flow_codec_rejects_truncation_and_unknown_tags() {
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntBetween {
                col: 2,
                min: 0,
                max: 9,
            })
            .project(vec![0, 2]);
        let samples = [flow.clone(), Flow::identity()];
        wire::assert_codec_contract(&samples, Flow::encode, Flow::decode);
        let mut bad_tag = flow.encode().chunk().to_vec();
        bad_tag[2] = 0xEE; // first stage tag sits after the u16 count
        assert_eq!(
            Flow::decode(&Bytes::copy_from_slice(&bad_tag)).err(),
            Some(DbError::Codec("unknown flow stage tag"))
        );
    }
}
