//! DPI-style flows: stream transformations applied *en route*.
//!
//! The paper (§4, Figure 6) observes that with DPI \[1\] the network itself
//! acts as a co-processor: data beams across InfiniBand arrive pre-filtered
//! and pre-placed, making the disaggregated architecture *faster* than the
//! aggregated one. A [`Flow`] is an ordered list of relational stages
//! (filter, project) applied to every batch a [`FlowSender`] ships.
//!
//! Cost model: on an `offload` link (see [`crate::link::LinkSpec`]) the
//! stage CPU time is charged to nobody — the NIC does it. On a non-offload
//! link the sending thread pays for the processing, which is exactly what
//! happens when it executes the closure.

use std::sync::Arc;

use anydb_common::wire::{self, WireRead};
use anydb_common::{ColPredicate, ColumnBatch, DbError, DbResult, Tuple};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::batch::Batch;
use crate::link::LinkSender;
use crate::spsc::PushError;

/// Wire tag of a [`FlowStage::FilterCol`] stage.
const FLOW_FILTER_COL: u8 = 1;
/// Wire tag of a [`FlowStage::Project`] stage.
const FLOW_PROJECT: u8 = 2;

/// One transformation stage.
#[derive(Clone)]
pub enum FlowStage {
    /// Keep only tuples matching an opaque row predicate. Works on both
    /// batch representations, but a columnar batch must materialize a
    /// scratch tuple per row to ask it — prefer [`FlowStage::FilterCol`]
    /// for anything hot.
    Filter(Arc<dyn Fn(&Tuple) -> bool + Send + Sync>),
    /// Keep only rows matching a columnar predicate: evaluated vectorized
    /// into a selection vector on column batches, per-row on tuple
    /// batches. This is also the form a scan can push down (see
    /// `anydb_storage`'s `scan_columns`).
    FilterCol(ColPredicate),
    /// Project onto the given column indices (per-column copy on columnar
    /// batches, per-tuple rebuild on row batches).
    Project(Vec<usize>),
}

impl std::fmt::Debug for FlowStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowStage::Filter(_) => write!(f, "Filter(..)"),
            FlowStage::FilterCol(p) => write!(f, "FilterCol({p:?})"),
            FlowStage::Project(cols) => write!(f, "Project({cols:?})"),
        }
    }
}

/// An ordered pipeline of stages.
#[derive(Clone, Debug, Default)]
pub struct Flow {
    stages: Vec<FlowStage>,
}

impl Flow {
    /// The identity flow (ships batches unchanged).
    pub fn identity() -> Self {
        Self::default()
    }

    /// Appends a filter stage over an opaque row predicate.
    pub fn filter(mut self, pred: impl Fn(&Tuple) -> bool + Send + Sync + 'static) -> Self {
        self.stages.push(FlowStage::Filter(Arc::new(pred)));
        self
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
    ///
    /// Only the relational stages are wire-encodable; an opaque
    /// [`FlowStage::Filter`] closure has no serial form and is an error —
    /// the caller chose a stage a remote NIC cannot run.
    pub fn encode_into(&self, buf: &mut BytesMut) -> DbResult<()> {
        debug_assert!(self.stages.len() <= u16::MAX as usize);
        buf.put_u16(self.stages.len() as u16);
        for stage in &self.stages {
            match stage {
                FlowStage::Filter(_) => {
                    return Err(DbError::Codec("opaque row filter is not wire-encodable"));
                }
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
        Ok(())
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> DbResult<Bytes> {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf)?;
        Ok(buf.freeze())
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

    /// Applies all stages to a row batch. The wire size is maintained
    /// incrementally across stages (subtracting dropped tuples, resizing
    /// projections as they are built) — never a second walk over the
    /// surviving tuples.
    pub fn apply(&self, batch: Batch) -> Batch {
        if self.stages.is_empty() {
            return batch;
        }
        let mut bytes = batch.bytes();
        let mut tuples = batch.into_tuples();
        for stage in &self.stages {
            match stage {
                FlowStage::Filter(pred) => tuples.retain(|t| {
                    let keep = pred(t);
                    if !keep {
                        bytes -= t.wire_size();
                    }
                    keep
                }),
                FlowStage::FilterCol(p) => tuples.retain(|t| {
                    let keep = p.matches_tuple(t);
                    if !keep {
                        bytes -= t.wire_size();
                    }
                    keep
                }),
                FlowStage::Project(cols) => {
                    bytes = 0;
                    for t in &mut tuples {
                        *t = t.project(cols);
                        bytes += t.wire_size();
                    }
                }
            }
        }
        Batch::with_bytes(tuples, bytes)
    }

    /// Applies all stages to a column batch: columnar filters run
    /// vectorized (selection vector + gather), projections copy whole
    /// columns, and only opaque row-closure filters fall back to a
    /// scratch tuple per row.
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
                FlowStage::Filter(pred) => {
                    sel.clear();
                    sel.extend(
                        (0..batch.rows())
                            .filter(|&i| pred(&batch.row_tuple(i)))
                            .map(|i| i as u32),
                    );
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

/// A link sender that pushes every batch through a [`Flow`] first.
///
/// The modeled transfer size is the *post-flow* size: this is the DPI
/// advantage — less data crosses the wire, and on offload links the
/// filtering itself is free.
pub struct FlowSender {
    link: LinkSender<Batch>,
    flow: Flow,
}

impl FlowSender {
    /// Wraps a link sender with a flow.
    pub fn new(link: LinkSender<Batch>, flow: Flow) -> Self {
        Self { link, flow }
    }

    /// Whether the underlying link offloads flow processing.
    pub fn is_offloaded(&self) -> bool {
        self.link.spec().offload
    }

    /// Applies the flow and ships the surviving tuples. Empty results are
    /// still shipped (zero-byte control message) so consumers can count
    /// batches for end-of-stream accounting.
    pub fn send(&mut self, batch: Batch) -> Result<(), PushError<Batch>> {
        let out = self.flow.apply(batch);
        let bytes = out.bytes();
        self.link.send(out, bytes)
    }

    /// Blocking variant of [`FlowSender::send`].
    pub fn send_blocking(&mut self, batch: Batch) -> Result<(), Batch> {
        let out = self.flow.apply(batch);
        let bytes = out.bytes();
        self.link.send_blocking(out, bytes)
    }

    /// Bulk path: splits `tuples` into `batch_rows`-sized [`Batch`]es,
    /// applies the flow to each, and ships the group through
    /// [`LinkSender::send_pipelined_blocking`] — one clock read and bulk
    /// ring crossings, but each batch keeps its own serialized wire
    /// transfer, so receivers still overlap consumption with the rest of
    /// the transfer (the pipelining Figure 6 depends on). Returns the
    /// number of batches shipped, or `Err` with how many were still
    /// unsent when the receiver vanished.
    pub fn send_split_blocking(
        &mut self,
        tuples: Vec<anydb_common::Tuple>,
        batch_rows: usize,
    ) -> Result<usize, usize> {
        self.send_batches_blocking(Batch::split(tuples, batch_rows))
    }

    /// Bulk path for producers that already built (incrementally sized)
    /// batches: applies the flow to each and ships the group pipelined.
    /// Returns the number of batches shipped, or `Err` with how many were
    /// still unsent when the receiver vanished.
    pub fn send_batches_blocking(&mut self, batches: Vec<Batch>) -> Result<usize, usize> {
        let batches: Vec<(Batch, usize)> = batches
            .into_iter()
            .map(|b| {
                let out = self.flow.apply(b);
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

/// The columnar counterpart of [`FlowSender`]: ships [`ColumnBatch`]es
/// through a flow, modeling the *post-flow* columnar wire size (one tag
/// per column, values packed) — this is where the link-transfer savings
/// of the columnar path come from.
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

    /// Applies the flow and ships the batch (empty results included, for
    /// end-of-stream accounting parity with the row path).
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

    /// Bulk path mirroring [`FlowSender::send_split_blocking`]: splits a
    /// scan's worth of columns into `batch_rows`-row wire batches, applies
    /// the flow to each, and ships the group pipelined (one clock read;
    /// each batch keeps its own serialized transfer). The split is
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
    use anydb_common::{DataType, Value};

    fn t2(a: i64, s: &str) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::str(s)])
    }

    #[test]
    fn identity_flow_passes_through() {
        let b = Batch::new(vec![t2(1, "a")]);
        let out = Flow::identity().apply(b.clone());
        assert_eq!(out.tuples(), b.tuples());
    }

    #[test]
    fn filter_stage_drops_tuples() {
        let flow = Flow::identity().filter(|t| t.get(0).as_int().unwrap() > 1);
        let out = flow.apply(Batch::new(vec![t2(1, "a"), t2(2, "b"), t2(3, "c")]));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_stage_narrows_tuples() {
        let flow = Flow::identity().project(vec![1]);
        let out = flow.apply(Batch::new(vec![t2(1, "a")]));
        assert_eq!(out.tuples()[0].values(), &[Value::str("a")]);
    }

    #[test]
    fn stages_compose_in_order() {
        let flow = Flow::identity()
            .filter(|t| t.get(0).as_int().unwrap() % 2 == 0)
            .project(vec![1]);
        let out = flow.apply(Batch::new(vec![t2(1, "a"), t2(2, "b"), t2(4, "d")]));
        assert_eq!(out.len(), 2);
        assert_eq!(out.tuples()[0].arity(), 1);
    }

    #[test]
    fn flow_reduces_wire_bytes() {
        let flow = Flow::identity().filter(|t| t.get(0).as_int().unwrap() == 0);
        let big = Batch::new((0..100).map(|i| t2(i, "payload")).collect());
        let out = flow.apply(big.clone());
        assert!(out.bytes() < big.bytes() / 10);
    }

    #[test]
    fn apply_maintains_bytes_incrementally() {
        let flow = Flow::identity()
            .filter(|t| t.get(0).as_int().unwrap() % 2 == 0)
            .project(vec![1]);
        let out = flow.apply(Batch::new((0..10).map(|i| t2(i, "abc")).collect()));
        // with_bytes debug-asserts the count; re-check against a fresh sum.
        assert_eq!(out.bytes(), Batch::new(out.tuples().to_vec()).bytes());
    }

    #[test]
    fn columnar_and_row_application_agree() {
        use anydb_common::{ColPredicate, ColumnBatch, DataType};
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntGe { col: 0, min: 2 })
            .project(vec![1]);
        let tuples: Vec<Tuple> = (0..6).map(|i| t2(i, &format!("s{i}"))).collect();
        let cols = ColumnBatch::from_tuples(&[DataType::Int, DataType::Str], &tuples).unwrap();
        let row_out = flow.apply(Batch::new(tuples));
        let col_out = flow.apply_columns(cols);
        assert_eq!(col_out.to_tuples(), row_out.tuples());
        // Same surviving rows, cheaper columnar wire encoding.
        assert!(col_out.bytes() <= row_out.bytes());
    }

    #[test]
    fn range_and_conjunction_filters_agree_across_representations() {
        use anydb_common::{ColPredicate, ColumnBatch, DataType};
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
        let cols = ColumnBatch::from_tuples(&[DataType::Int, DataType::Str], &tuples).unwrap();
        let row_out = flow.apply(Batch::new(tuples));
        let col_out = flow.apply_columns(cols);
        assert_eq!(col_out.to_tuples(), row_out.tuples());
        assert_eq!(col_out.rows(), 2); // rows 2 and 4
    }

    #[test]
    fn row_closure_filter_works_on_columns() {
        use anydb_common::{ColumnBatch, DataType};
        let flow = Flow::identity().filter(|t| t.get(1).as_str().unwrap() == "b");
        let tuples = vec![t2(1, "a"), t2(2, "b"), t2(3, "b")];
        let cols = ColumnBatch::from_tuples(&[DataType::Int, DataType::Str], &tuples).unwrap();
        assert_eq!(flow.apply_columns(cols).rows(), 2);
    }

    #[test]
    fn col_flow_sender_ships_post_flow_size() {
        use anydb_common::{ColPredicate, ColumnBatch, DataType};
        let (tx, mut rx) = SimLink::channel::<ColumnBatch>(LinkSpec::instant(), 8);
        let mut sender = ColFlowSender::new(
            tx,
            Flow::identity().filter_col(ColPredicate::IntGe { col: 0, min: 5 }),
        );
        assert!(!sender.is_offloaded());
        let tuples: Vec<Tuple> = (0..10).map(|i| t2(i, "x")).collect();
        let batch = ColumnBatch::from_tuples(&[DataType::Int, DataType::Str], &tuples).unwrap();
        assert_eq!(sender.send_split_blocking(batch, 4), Ok(3));
        let mut rows = 0;
        while let Ok(b) = rx.try_recv() {
            rows += b.rows();
        }
        assert_eq!(rows, 5);
    }

    #[test]
    fn flow_sender_ships_post_flow_size() {
        let (tx, mut rx) = SimLink::channel::<Batch>(LinkSpec::instant(), 8);
        let mut sender = FlowSender::new(
            tx,
            Flow::identity().filter(|t| t.get(0).as_int().unwrap() < 2),
        );
        assert!(!sender.is_offloaded());
        sender
            .send(Batch::new(vec![t2(1, "a"), t2(5, "b")]))
            .unwrap();
        let got = rx.try_recv().unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn flow_codec_roundtrips_by_behavior() {
        // FlowStage holds closures, so equality is behavioral: the
        // decoded flow must transform batches exactly like the original.
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntGe { col: 0, min: 3 })
            .project(vec![1, 0])
            .filter_col(ColPredicate::StrPrefix {
                col: 0,
                prefix: "x".into(),
            });
        let enc = flow.encode().unwrap();
        let dec = Flow::decode(&enc).unwrap();
        assert_eq!(dec.len(), 3);
        let tuples: Vec<Tuple> = (0..8).map(|i| t2(i, "x")).collect();
        let batch = ColumnBatch::from_tuples(&[DataType::Int, DataType::Str], &tuples).unwrap();
        assert_eq!(
            dec.apply_columns(batch.clone()),
            flow.apply_columns(batch.clone())
        );
        assert_eq!(dec.apply_columns(batch).rows(), 5);
        // The identity flow is two bytes of stage count.
        let identity = Flow::identity().encode().unwrap();
        assert_eq!(identity.len(), 2);
        assert!(Flow::decode(&identity).unwrap().is_empty());
    }

    #[test]
    fn flow_codec_rejects_closures_truncation_and_unknown_tags() {
        assert!(Flow::identity().filter(|_| true).encode().is_err());
        let flow = Flow::identity()
            .filter_col(ColPredicate::IntBetween {
                col: 2,
                min: 0,
                max: 9,
            })
            .project(vec![0, 2]);
        let enc = flow.encode().unwrap();
        // `Flow` has no `==`: the contract runs on its encodings, a flow
        // decoding back to one that re-encodes to the same bytes.
        let samples = [enc.clone(), Flow::identity().encode().unwrap()];
        let decode = |b: &Bytes| Flow::decode(b)?.encode();
        wire::assert_codec_contract(&samples, Bytes::clone, decode);
        let mut bad_tag = enc.chunk().to_vec();
        bad_tag[2] = 0xEE; // first stage tag sits after the u16 count
        assert_eq!(
            Flow::decode(&Bytes::copy_from_slice(&bad_tag)).err(),
            Some(DbError::Codec("unknown flow stage tag"))
        );
    }
}
