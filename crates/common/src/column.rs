//! Columnar batches: the struct-of-arrays representation data streams ship
//! for OLAP state.
//!
//! Row [`Tuple`]s are the right unit for OLTP events (a handful of values
//! riding along with the event), but §4 data streams move *millions* of
//! rows per query, and a `Vec<Value>` per row costs an allocation, an enum
//! tag per value, and — on the wire — a self-describing tag per value. A
//! [`ColumnBatch`] stores the same rows column-organized (C-Store-style):
//! one typed vector per column (`Vec<i64>` / `Vec<f64>` / a string arena),
//! a null bitmap per column, and a wire encoding that spends one tag per
//! *column* with the values packed contiguously. Operators work on column
//! slices with selection vectors and materialize rows only at the final
//! output (late materialization).
//!
//! ## Shared buffers and views (Arrow-style)
//!
//! Column buffers are **immutable and `Arc`-shared** once built: a
//! [`Column`] is an `(offset, length)` *view* over shared typed buffers,
//! so [`ColumnBatch::slice`], [`ColumnBatch::split`] and
//! [`ColumnBatch::project`] are O(columns) metadata operations that never
//! copy a value — a producer can split a partition's worth of columns
//! into wire batches for free. Mutation (`push*`) is copy-on-write: it
//! requires exclusive ownership of the full buffer and re-materializes
//! the visible window first when the column is shared or truncated
//! (scans append through a [`BatchAppender`], which pays the exclusivity
//! check once per scan instead of once per value).
//!
//! The modeled wire size is computable in O(columns) from the view
//! lengths — no per-row accounting — which is what lets producers maintain
//! batch sizes incrementally instead of re-walking every tuple.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{DbError, DbResult};
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::wire::{self, WireRead};

/// Wire tags for the columnar encoding (one per column, not per value).
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Wire tags for the [`ColPredicate`] codec.
const PRED_INT_GE: u8 = 1;
const PRED_STR_PREFIX: u8 = 2;
const PRED_INT_BETWEEN: u8 = 3;
const PRED_AND: u8 = 4;

/// Hard cap on decoded batch geometry, so a corrupt header cannot ask the
/// decoder to reserve gigabytes.
const MAX_DECODE_ROWS: usize = 1 << 24;

/// Maximum predicate nesting the decoder accepts (a corrupt `And` chain
/// must not recurse unboundedly).
const MAX_PRED_DEPTH: usize = 8;

/// The smallest predicate encoding: an empty `And` (tag + u16 count).
const MIN_PRED_WIRE_SIZE: usize = 3;

/// The smallest column encoding: a zero-row column without a bitmap
/// (tag + null flag).
const MIN_COLUMN_WIRE_SIZE: usize = 2;

/// Converts a packed payload of big-endian values, `N` bytes each.
fn unpack<const N: usize, T>(bytes: &[u8], from_be: impl Fn([u8; N]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(N)
        .map(|v| from_be(v.try_into().expect("chunks_exact yields N bytes")))
        .collect()
}

/// Sets bit `row` in a little-endian byte bitmap, growing it as needed.
fn bit_set(bits: &mut Vec<u8>, row: usize) {
    if bits.len() <= row / 8 {
        bits.resize(row / 8 + 1, 0);
    }
    bits[row / 8] |= 1 << (row % 8);
}

/// Clears bit `row` (no-op when the bitmap never grew that far).
fn bit_clear(bits: &mut [u8], row: usize) {
    if let Some(b) = bits.get_mut(row / 8) {
        *b &= !(1 << (row % 8));
    }
}

/// Reads bit `row` of a little-endian byte bitmap.
fn bit_get(bits: &[u8], row: usize) -> bool {
    bits.get(row / 8).is_some_and(|b| b & (1 << (row % 8)) != 0)
}

/// Sets bits `lo..hi` of a u64-word selection bitmap (used by the
/// trivially-true `And(vec![])` in the bitmap evaluators). Whole words
/// inside the range are written in one store each.
fn set_bit_range(bits: &mut [u64], lo: usize, hi: usize) {
    for (w, word) in bits.iter_mut().enumerate() {
        let word_lo = w * 64;
        let word_hi = word_lo + 64;
        if hi <= word_lo || word_hi <= lo {
            continue;
        }
        let start = lo.max(word_lo) - word_lo;
        let end = hi.min(word_hi) - word_lo;
        let mask = if end - start == 64 {
            !0
        } else {
            ((1u64 << (end - start)) - 1) << start
        };
        *word |= mask;
    }
}

/// Expands a u64-word selection bitmap into row indices, appending one
/// `u32` per set bit to `sel` in ascending order. Set-bit iteration
/// (`trailing_zeros` + clear-lowest-bit) touches only the words, so
/// sparse selections cost O(words + ones) instead of O(rows).
pub fn bitmap_ones(bits: &[u64], sel: &mut Vec<u32>) {
    for (w, word) in bits.iter().enumerate() {
        let mut word = *word;
        let base = (w * 64) as u32;
        while word != 0 {
            sel.push(base + word.trailing_zeros());
            word &= word - 1;
        }
    }
}

/// Typed value storage of one column: immutable buffers shared between
/// every view cloned from the same batch. Null positions hold a
/// placeholder (`0` / `0.0` / empty string); the owning [`Column`]'s
/// bitmap is authoritative.
#[derive(Debug, Clone)]
enum ColumnData {
    /// 64-bit integers.
    Int(Arc<Vec<i64>>),
    /// 64-bit floats.
    Float(Arc<Vec<f64>>),
    /// Strings in a shared arena: value `i` is
    /// `arena[offsets[i] .. offsets[i + 1]]` (`offsets.len() == rows + 1`
    /// over the *base* buffer; views window into it).
    Str {
        /// Row boundaries into the arena, monotone. `offsets[0]` is 0 for
        /// owned columns but non-zero for views into a larger buffer.
        offsets: Arc<Vec<u32>>,
        /// Concatenated string payloads.
        arena: Arc<String>,
    },
}

/// One column: a `(offset, length)` view over shared typed buffers plus a
/// (shared) null bitmap addressed in *base* row coordinates.
///
/// Equality is **logical**: two columns are equal when they expose the
/// same typed values and null positions, regardless of how their views
/// window the underlying buffers.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// Bit `off + i` set = visible row `i` is NULL. Empty while the base
    /// buffer has no nulls (the common case). Shared by views; a view of
    /// a null-free range of a null-carrying buffer still reports
    /// [`Column::has_nulls`] conservatively (the per-row
    /// [`Column::is_null`] stays exact).
    nulls: Arc<Vec<u8>>,
    /// First visible row in the shared buffers.
    off: usize,
    /// Number of visible rows.
    len: usize,
}

/// Exclusive append handles onto one column's buffers, produced by
/// [`Column::col_mut`] after copy-on-write; lets hot loops push values
/// without re-checking `Arc` uniqueness per value.
enum ColDataMut<'a> {
    Int(&'a mut Vec<i64>),
    Float(&'a mut Vec<f64>),
    Str {
        offsets: &'a mut Vec<u32>,
        arena: &'a mut String,
    },
}

/// Mutable append session over one column (see [`BatchAppender`]).
///
/// The column's `len` is deliberately *not* updated per push — the
/// appender fixes every column's length once on drop, which removes a
/// handful of memory read-modify-writes from each row of a hot scan.
struct ColMut<'a> {
    data: ColDataMut<'a>,
    nulls: &'a mut Vec<u8>,
    len: &'a mut usize,
}

impl ColMut<'_> {
    /// Appends `v`, type-checked against the column type; NULL is allowed
    /// in any column. `row` is the value's row index (for the null
    /// bitmap).
    fn push(&mut self, v: &Value, row: usize) -> DbResult<()> {
        match (&mut self.data, v) {
            (ColDataMut::Int(col), Value::Int(i)) => col.push(*i),
            (ColDataMut::Float(col), Value::Float(f)) => col.push(*f),
            (ColDataMut::Str { offsets, arena }, Value::Str(s)) => {
                arena.push_str(s);
                offsets.push(arena.len() as u32);
            }
            (_, Value::Null) => self.push_null(row),
            _ => return Err(DbError::TypeMismatch("value type vs column type")),
        }
        Ok(())
    }

    /// Appends a NULL at row index `row` (placeholder value + bitmap bit).
    fn push_null(&mut self, row: usize) {
        match &mut self.data {
            ColDataMut::Int(col) => col.push(0),
            ColDataMut::Float(col) => col.push(0.0),
            ColDataMut::Str { offsets, arena } => offsets.push(arena.len() as u32),
        }
        bit_set(self.nulls, row);
    }

    /// Pre-sizes the value buffers for `n` more rows (arena growth stays
    /// amortized — string payload sizes are unknown upfront).
    fn reserve(&mut self, n: usize) {
        match &mut self.data {
            ColDataMut::Int(col) => col.reserve(n),
            ColDataMut::Float(col) => col.reserve(n),
            ColDataMut::Str { offsets, .. } => offsets.reserve(n),
        }
    }

    /// Bulk-appends rows `lo..hi` of `store`, landing at destination row
    /// `dst_start` onward. Int/Float ranges are one `extend_from_slice`
    /// (the memcpy that replaces a per-row tuple walk); strings copy
    /// their arena spans contiguously.
    fn extend_from_store(
        &mut self,
        store: &ColumnStore,
        lo: usize,
        hi: usize,
        dst_start: usize,
    ) -> DbResult<()> {
        match (&mut self.data, &store.data) {
            (ColDataMut::Int(col), StoreData::Int(src)) => col.extend_from_slice(&src[lo..hi]),
            (ColDataMut::Float(col), StoreData::Float(src)) => col.extend_from_slice(&src[lo..hi]),
            (ColDataMut::Str { offsets, arena }, StoreData::Str { spans, arena: src }) => {
                for &(off, len) in &spans[lo..hi] {
                    arena.push_str(&src[off as usize..(off + len) as usize]);
                    offsets.push(arena.len() as u32);
                }
            }
            _ => return Err(DbError::TypeMismatch("value type vs column type")),
        }
        if !store.nulls.is_empty() {
            for i in lo..hi {
                if store.is_null(i) {
                    bit_set(self.nulls, dst_start + (i - lo));
                }
            }
        }
        Ok(())
    }

    /// Gathers the rows listed in `sel` from `store` (filtered-scan
    /// materialization), landing at destination row `dst_start` onward.
    fn extend_from_store_sel(
        &mut self,
        store: &ColumnStore,
        sel: &[u32],
        dst_start: usize,
    ) -> DbResult<()> {
        match (&mut self.data, &store.data) {
            (ColDataMut::Int(col), StoreData::Int(src)) => {
                col.extend(sel.iter().map(|&i| src[i as usize]));
            }
            (ColDataMut::Float(col), StoreData::Float(src)) => {
                col.extend(sel.iter().map(|&i| src[i as usize]));
            }
            (ColDataMut::Str { offsets, arena }, StoreData::Str { spans, arena: src }) => {
                for &i in sel {
                    let (off, len) = spans[i as usize];
                    arena.push_str(&src[off as usize..(off + len) as usize]);
                    offsets.push(arena.len() as u32);
                }
            }
            _ => return Err(DbError::TypeMismatch("value type vs column type")),
        }
        if !store.nulls.is_empty() {
            for (k, &i) in sel.iter().enumerate() {
                if store.is_null(i as usize) {
                    bit_set(self.nulls, dst_start + k);
                }
            }
        }
        Ok(())
    }
}

impl Column {
    /// An empty column of the given type.
    pub fn new(ty: DataType) -> Self {
        let data = match ty {
            DataType::Int => ColumnData::Int(Arc::new(Vec::new())),
            DataType::Float => ColumnData::Float(Arc::new(Vec::new())),
            DataType::Str => ColumnData::Str {
                offsets: Arc::new(vec![0]),
                arena: Arc::new(String::new()),
            },
        };
        Self {
            data,
            nulls: Arc::new(Vec::new()),
            off: 0,
            len: 0,
        }
    }

    /// The column's declared type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Number of visible rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows in the shared base buffer (a view may expose fewer).
    fn base_rows(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { offsets, .. } => offsets.len() - 1,
        }
    }

    /// The raw visible values (`None` if this is not an Int column). Null
    /// rows hold `0`; consult [`Column::is_null`].
    #[inline]
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// The raw visible values (`None` if this is not a Float column).
    #[inline]
    pub fn floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// The string at visible row `row` (`None` for non-Str columns; empty
    /// for nulls).
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match &self.data {
            ColumnData::Str { offsets, arena } => {
                let i = self.off + row;
                assert!(row < self.len, "str_at({row}) of {} rows", self.len);
                Some(&arena[offsets[i] as usize..offsets[i + 1] as usize])
            }
            _ => None,
        }
    }

    /// True if the value at visible row `row` is NULL.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        let i = self.off + row;
        self.nulls
            .get(i / 8)
            .is_some_and(|b| b & (1 << (i % 8)) != 0)
    }

    /// True if the column *may* hold NULLs: exact for owned columns,
    /// conservative for views (the base buffer has nulls, possibly
    /// outside the view's window). [`Column::is_null`] is always exact.
    pub fn has_nulls(&self) -> bool {
        !self.nulls.is_empty()
    }

    /// True if any *visible* row is NULL (O(rows) for views).
    fn has_nulls_in_view(&self) -> bool {
        !self.nulls.is_empty() && (0..self.len).any(|i| self.is_null(i))
    }

    /// Materializes the value at visible row `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(_) => Value::Int(self.ints().expect("int column")[row]),
            ColumnData::Float(_) => Value::Float(self.floats().expect("float column")[row]),
            ColumnData::Str { .. } => Value::str(self.str_at(row).expect("str column")),
        }
    }

    /// Re-materializes the visible window into exclusively-owned buffers
    /// unless this column already *is* the whole, un-shared buffer. After
    /// this, `off == 0`, `len == base_rows()`, and every `Arc` is unique.
    fn make_exclusive(&mut self) {
        let full = self.off == 0 && self.len == self.base_rows();
        if !(full && Arc::get_mut(&mut self.nulls).is_some()) {
            let mut fresh = Vec::new();
            if !self.nulls.is_empty() {
                for i in 0..self.len {
                    if self.is_null(i) {
                        bit_set(&mut fresh, i);
                    }
                }
            }
            self.nulls = Arc::new(fresh);
        }
        match &mut self.data {
            ColumnData::Int(v) => {
                if !(full && Arc::get_mut(v).is_some()) {
                    *v = Arc::new(v[self.off..self.off + self.len].to_vec());
                }
            }
            ColumnData::Float(v) => {
                if !(full && Arc::get_mut(v).is_some()) {
                    *v = Arc::new(v[self.off..self.off + self.len].to_vec());
                }
            }
            ColumnData::Str { offsets, arena } => {
                if !(full && Arc::get_mut(offsets).is_some() && Arc::get_mut(arena).is_some()) {
                    let base = offsets[self.off];
                    let end = offsets[self.off + self.len];
                    let rebased: Vec<u32> = offsets[self.off..=self.off + self.len]
                        .iter()
                        .map(|&o| o - base)
                        .collect();
                    *arena = Arc::new(arena[base as usize..end as usize].to_string());
                    *offsets = Arc::new(rebased);
                }
            }
        }
        self.off = 0;
    }

    /// An exclusive append session (copy-on-write happens here, once).
    fn col_mut(&mut self) -> ColMut<'_> {
        self.make_exclusive();
        let Column {
            data, nulls, len, ..
        } = self;
        let data = match data {
            ColumnData::Int(v) => ColDataMut::Int(Arc::get_mut(v).expect("exclusive")),
            ColumnData::Float(v) => ColDataMut::Float(Arc::get_mut(v).expect("exclusive")),
            ColumnData::Str { offsets, arena } => ColDataMut::Str {
                offsets: Arc::get_mut(offsets).expect("exclusive"),
                arena: Arc::get_mut(arena).expect("exclusive"),
            },
        };
        ColMut {
            data,
            nulls: Arc::get_mut(nulls).expect("exclusive"),
            len,
        }
    }

    /// Appends `v`, type-checked against the column type; NULL is allowed
    /// in any column (null-ability is the schema's concern, checked at
    /// insert — streams just carry what storage holds). Copy-on-write if
    /// the column is a shared view; use a [`BatchAppender`] to amortize
    /// that check over a whole scan.
    pub fn push(&mut self, v: &Value) -> DbResult<()> {
        let row = self.len;
        let mut m = self.col_mut();
        m.push(v, row)?;
        *m.len = row + 1;
        Ok(())
    }

    /// Appends a NULL (placeholder value + bitmap bit).
    pub fn push_null(&mut self) {
        let row = self.len;
        let mut m = self.col_mut();
        m.push_null(row);
        *m.len = row + 1;
    }

    /// Modeled wire size of this column's payload: one tag + null flag,
    /// the bitmap when (possibly) present, and the packed values. O(1) —
    /// a view of a null-free window over a null-carrying buffer charges
    /// for a bitmap it would not strictly need to ship.
    pub fn wire_size(&self) -> usize {
        let bitmap = if self.nulls.is_empty() {
            0
        } else {
            self.len.div_ceil(8)
        };
        let payload = match &self.data {
            ColumnData::Int(_) | ColumnData::Float(_) => 8 * self.len,
            ColumnData::Str { offsets, .. } => {
                let span = (offsets[self.off + self.len] - offsets[self.off]) as usize;
                4 * (self.len + 1) + span
            }
        };
        2 + bitmap + payload
    }

    /// Copies the visible rows listed in `sel` (in order) into a new,
    /// owned column — selection is inherently a gather, not a view.
    ///
    /// # Panics
    /// Panics if a selection index is out of range.
    pub fn take(&self, sel: &[u32]) -> Column {
        let mut nulls = Vec::new();
        if self.has_nulls() {
            for (row, &i) in sel.iter().enumerate() {
                if self.is_null(i as usize) {
                    bit_set(&mut nulls, row);
                }
            }
        }
        let data = match &self.data {
            ColumnData::Int(_) => {
                let v = self.ints().expect("int column");
                ColumnData::Int(Arc::new(sel.iter().map(|&i| v[i as usize]).collect()))
            }
            ColumnData::Float(_) => {
                let v = self.floats().expect("float column");
                ColumnData::Float(Arc::new(sel.iter().map(|&i| v[i as usize]).collect()))
            }
            ColumnData::Str { .. } => {
                let mut dst_offsets = Vec::with_capacity(sel.len() + 1);
                dst_offsets.push(0u32);
                let mut dst_arena = String::new();
                for &i in sel {
                    dst_arena.push_str(self.str_at(i as usize).expect("str column"));
                    dst_offsets.push(dst_arena.len() as u32);
                }
                ColumnData::Str {
                    offsets: Arc::new(dst_offsets),
                    arena: Arc::new(dst_arena),
                }
            }
        };
        Column {
            data,
            nulls: Arc::new(nulls),
            off: 0,
            len: sel.len(),
        }
    }

    /// A zero-copy view of visible rows `lo..hi`: shares the underlying
    /// buffers, adjusting only the window. O(1).
    fn slice(&self, lo: usize, hi: usize) -> Column {
        Column {
            data: self.data.clone(),
            nulls: self.nulls.clone(),
            off: self.off + lo,
            len: hi - lo,
        }
    }

    /// True if `self` and `other` are views over the very same base
    /// buffer (zero-copy sharing witness; test/diagnostic use).
    pub fn shares_buffer_with(&self, other: &Column) -> bool {
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Float(a), ColumnData::Float(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Str { arena: a, .. }, ColumnData::Str { arena: b, .. }) => {
                Arc::ptr_eq(a, b)
            }
            _ => false,
        }
    }
}

impl PartialEq for Column {
    /// Logical equality: same type, same visible values, same null
    /// positions — view windows and buffer sharing are representation.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len || self.data_type() != other.data_type() {
            return false;
        }
        let nulls_agree = if self.nulls.is_empty() && other.nulls.is_empty() {
            true
        } else {
            (0..self.len).all(|i| self.is_null(i) == other.is_null(i))
        };
        if !nulls_agree {
            return false;
        }
        match &self.data {
            ColumnData::Int(_) => self.ints() == other.ints(),
            ColumnData::Float(_) => self.floats() == other.floats(),
            ColumnData::Str { .. } => (0..self.len).all(|i| self.str_at(i) == other.str_at(i)),
        }
    }
}

/// Typed value storage of one column in the ColumnStore mirror. Strings
/// live in an append-only arena addressed by per-row `(offset, len)`
/// spans, so an in-place update appends the new payload and repoints the
/// span — the old bytes become garbage, which is the classic write-
/// optimized-column trade (a real system compacts; update volume here is
/// OLTP-rate, not scan-rate).
enum StoreData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Strings: value `i` is `arena[spans[i].0 .. spans[i].0 + spans[i].1]`.
    Str {
        /// `(offset, len)` of each row's payload in the arena.
        spans: Vec<(u32, u32)>,
        /// Append-only payload arena (updates append and repoint).
        arena: String,
    },
}

/// Spans address the store arena with `u32` offsets, and the arena is
/// long-lived and append-only (string updates leave garbage behind), so
/// a write that would push it past `u32` addressing must fail loudly —
/// a wrapped offset would silently repoint rows at the wrong bytes. The
/// panic is the compaction backstop: hitting it means the column has
/// accumulated ~4 GiB of string writes in one partition and needs arena
/// compaction (ROADMAP follow-up), not a bigger integer.
fn check_arena_capacity(arena: &str, incoming: &str) {
    assert!(
        arena.len() + incoming.len() <= u32::MAX as usize,
        "column-store string arena exceeds u32 addressing; compact it"
    );
}

/// Mutable, in-place-updatable typed storage of one column — the unit of
/// the write-through **per-column storage mirror** partitions maintain
/// (the C-Store/Vertica move). Unlike [`Column`], whose buffers are
/// immutable and `Arc`-shared between views, a store is uniquely owned
/// by its writer and supports [`ColumnStore::set`] (OLTP update
/// write-through) next to [`ColumnStore::push`] (append write-through).
/// Scans never hand out references into a store: they bulk-copy ranges
/// into a [`ColumnBatch`] via [`BatchAppender::extend_from_stores`] /
/// [`BatchAppender::extend_from_stores_sel`] — sequential typed-vector
/// copies, no per-row tuple walk.
pub struct ColumnStore {
    data: StoreData,
    /// Bit `row` set = row is NULL (lazily grown, like [`Column`]).
    nulls: Vec<u8>,
    len: usize,
}

impl ColumnStore {
    /// An empty store of the given type.
    pub fn new(ty: DataType) -> Self {
        let data = match ty {
            DataType::Int => StoreData::Int(Vec::new()),
            DataType::Float => StoreData::Float(Vec::new()),
            DataType::Str => StoreData::Str {
                spans: Vec::new(),
                arena: String::new(),
            },
        };
        Self {
            data,
            nulls: Vec::new(),
            len: 0,
        }
    }

    /// The store's declared type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            StoreData::Int(_) => DataType::Int,
            StoreData::Float(_) => DataType::Float,
            StoreData::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the row is NULL.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        bit_get(&self.nulls, row)
    }

    /// The raw values (`None` if not an Int store); null rows hold `0`.
    #[inline]
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.data {
            StoreData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The raw values (`None` if not a Float store).
    #[inline]
    pub fn floats(&self) -> Option<&[f64]> {
        match &self.data {
            StoreData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The string at `row` (`None` for non-Str stores; empty for nulls).
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match &self.data {
            StoreData::Str { spans, arena } => {
                let (off, len) = spans[row];
                Some(&arena[off as usize..(off + len) as usize])
            }
            _ => None,
        }
    }

    /// Materializes the value at `row` (tests/diagnostics).
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            StoreData::Int(v) => Value::Int(v[row]),
            StoreData::Float(v) => Value::Float(v[row]),
            StoreData::Str { .. } => Value::str(self.str_at(row).expect("str store")),
        }
    }

    /// Appends `v`, type-checked; NULL is allowed in any column.
    pub fn push(&mut self, v: &Value) -> DbResult<()> {
        let row = self.len;
        match (&mut self.data, v) {
            (StoreData::Int(col), Value::Int(i)) => col.push(*i),
            (StoreData::Float(col), Value::Float(f)) => col.push(*f),
            (StoreData::Str { spans, arena }, Value::Str(s)) => {
                check_arena_capacity(arena, s);
                spans.push((arena.len() as u32, s.len() as u32));
                arena.push_str(s);
            }
            (data, Value::Null) => {
                match data {
                    StoreData::Int(col) => col.push(0),
                    StoreData::Float(col) => col.push(0.0),
                    StoreData::Str { spans, arena } => spans.push((arena.len() as u32, 0)),
                }
                bit_set(&mut self.nulls, row);
            }
            _ => return Err(DbError::TypeMismatch("value type vs column type")),
        }
        self.len = row + 1;
        Ok(())
    }

    /// Pre-sizes the value buffer for `n` more rows.
    pub fn reserve(&mut self, n: usize) {
        match &mut self.data {
            StoreData::Int(col) => col.reserve(n),
            StoreData::Float(col) => col.reserve(n),
            StoreData::Str { spans, .. } => spans.reserve(n),
        }
    }

    /// Overwrites the value at `row` in place, type-checked. Returns
    /// whether the stored value actually **changed** — the diff signal
    /// column-level epochs key off (a write-through of an identical
    /// value must not invalidate cached scans of this column).
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn set(&mut self, row: usize, v: &Value) -> DbResult<bool> {
        assert!(row < self.len, "set({row}) of {} rows", self.len);
        let was_null = self.is_null(row);
        let changed = match (&mut self.data, v) {
            (StoreData::Int(col), Value::Int(i)) => {
                let changed = was_null || col[row] != *i;
                col[row] = *i;
                changed
            }
            (StoreData::Float(col), Value::Float(f)) => {
                // Bit-level compare: a NaN overwrite must still count as
                // a change the first time, and -0.0 vs 0.0 are distinct
                // stored states.
                let changed = was_null || col[row].to_bits() != f.to_bits();
                col[row] = *f;
                changed
            }
            (StoreData::Str { spans, arena }, Value::Str(s)) => {
                let (off, len) = spans[row];
                let changed = was_null || arena[off as usize..(off + len) as usize] != **s;
                if changed {
                    check_arena_capacity(arena, s);
                    spans[row] = (arena.len() as u32, s.len() as u32);
                    arena.push_str(s);
                }
                changed
            }
            (data, Value::Null) => {
                if !was_null {
                    match data {
                        StoreData::Int(col) => col[row] = 0,
                        StoreData::Float(col) => col[row] = 0.0,
                        StoreData::Str { spans, .. } => {
                            spans[row].1 = 0;
                        }
                    }
                }
                bit_set(&mut self.nulls, row);
                !was_null
            }
            _ => return Err(DbError::TypeMismatch("value type vs column type")),
        };
        if changed && was_null && !matches!(v, Value::Null) {
            bit_clear(&mut self.nulls, row);
        }
        Ok(changed)
    }
}

/// A columnar predicate that can be *pushed down* to the scan (evaluated
/// per row while the scan still holds the row) or evaluated vectorized
/// over a [`ColumnBatch`] into a selection vector. The enum is the
/// deliberately small pushdown language: what a NIC flow / storage AC can
/// apply without running user code — and it has a wire codec
/// ([`ColPredicate::encode_into`]) so a flow spec can be shipped to
/// wherever the scan runs. `Eq + Hash` let predicates key caches (the
/// shared-scan cache in storage keys on `(partition, proj, pred)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ColPredicate {
    /// `col >= min` over Int values; NULLs and non-Int values fail.
    IntGe {
        /// Column position (pre-projection, i.e. in scan input order).
        col: usize,
        /// Inclusive lower bound.
        min: i64,
    },
    /// `min <= col <= max` over Int values (both bounds inclusive);
    /// NULLs and non-Int values fail.
    IntBetween {
        /// Column position (pre-projection).
        col: usize,
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
    },
    /// Str value at `col` starts with `prefix`; NULLs and non-Str fail.
    StrPrefix {
        /// Column position (pre-projection).
        col: usize,
        /// Required prefix.
        prefix: String,
    },
    /// Conjunction: every child must pass. `And(vec![])` passes all rows.
    And(Vec<ColPredicate>),
}

impl ColPredicate {
    /// Row-at-a-time evaluation (scan pushdown and row-path parity).
    pub fn matches(&self, values: &[Value]) -> bool {
        match self {
            ColPredicate::IntGe { col, min } => {
                matches!(values.get(*col), Some(Value::Int(v)) if v >= min)
            }
            ColPredicate::IntBetween { col, min, max } => {
                matches!(values.get(*col), Some(Value::Int(v)) if v >= min && v <= max)
            }
            ColPredicate::StrPrefix { col, prefix } => {
                matches!(values.get(*col), Some(Value::Str(s)) if s.starts_with(prefix.as_str()))
            }
            ColPredicate::And(ps) => ps.iter().all(|p| p.matches(values)),
        }
    }

    /// Row-at-a-time evaluation over a tuple.
    pub fn matches_tuple(&self, t: &Tuple) -> bool {
        self.matches(t.values())
    }

    /// Evaluation of one row of a column batch (used to refine `And`
    /// selections; missing or mistyped columns fail, like
    /// [`ColPredicate::matches`]).
    pub fn matches_row(&self, batch: &ColumnBatch, row: usize) -> bool {
        match self {
            ColPredicate::IntGe { col, min } => batch
                .columns()
                .get(*col)
                .is_some_and(|c| !c.is_null(row) && c.ints().is_some_and(|v| v[row] >= *min)),
            ColPredicate::IntBetween { col, min, max } => {
                batch.columns().get(*col).is_some_and(|c| {
                    !c.is_null(row) && c.ints().is_some_and(|v| v[row] >= *min && v[row] <= *max)
                })
            }
            ColPredicate::StrPrefix { col, prefix } => batch.columns().get(*col).is_some_and(|c| {
                !c.is_null(row)
                    && c.str_at(row)
                        .is_some_and(|s| s.starts_with(prefix.as_str()))
            }),
            ColPredicate::And(ps) => ps.iter().all(|p| p.matches_row(batch, row)),
        }
    }

    /// Vectorized evaluation: appends the indices of passing rows of
    /// `batch` to `sel`. The predicate's `col` addresses `batch`'s own
    /// column order here (apply [`ColPredicate::at`] after projection).
    /// Missing or mistyped columns select nothing.
    pub fn select(&self, batch: &ColumnBatch, sel: &mut Vec<u32>) {
        match self {
            ColPredicate::IntGe { col, min } => {
                let Some(column) = batch.columns().get(*col) else {
                    return;
                };
                let Some(vals) = column.ints() else { return };
                if column.has_nulls() {
                    sel.extend((0..vals.len()).filter_map(|i| {
                        (vals[i] >= *min && !column.is_null(i)).then_some(i as u32)
                    }));
                } else {
                    sel.extend(
                        vals.iter()
                            .enumerate()
                            .filter_map(|(i, v)| (v >= min).then_some(i as u32)),
                    );
                }
            }
            ColPredicate::IntBetween { col, min, max } => {
                let Some(column) = batch.columns().get(*col) else {
                    return;
                };
                let Some(vals) = column.ints() else { return };
                if column.has_nulls() {
                    sel.extend((0..vals.len()).filter_map(|i| {
                        (vals[i] >= *min && vals[i] <= *max && !column.is_null(i))
                            .then_some(i as u32)
                    }));
                } else {
                    sel.extend(
                        vals.iter()
                            .enumerate()
                            .filter_map(|(i, v)| (v >= min && v <= max).then_some(i as u32)),
                    );
                }
            }
            ColPredicate::StrPrefix { col, prefix } => {
                let Some(column) = batch.columns().get(*col) else {
                    return;
                };
                if !matches!(column.data_type(), DataType::Str) {
                    return;
                }
                for i in 0..column.len() {
                    if !column.is_null(i)
                        && column
                            .str_at(i)
                            .is_some_and(|s| s.starts_with(prefix.as_str()))
                    {
                        sel.push(i as u32);
                    }
                }
            }
            ColPredicate::And(ps) => {
                let Some((first, rest)) = ps.split_first() else {
                    // Empty conjunction: every row passes.
                    sel.extend((0..batch.rows()).map(|i| i as u32));
                    return;
                };
                let start = sel.len();
                first.select(batch, sel);
                if rest.is_empty() {
                    return;
                }
                // Refine the first child's selection in place: the later
                // children only look at already-selected rows.
                let mut w = start;
                for r in start..sel.len() {
                    let row = sel[r];
                    if rest.iter().all(|p| p.matches_row(batch, row as usize)) {
                        sel[w] = row;
                        w += 1;
                    }
                }
                sel.truncate(w);
            }
        }
    }

    /// Row-at-a-time evaluation over mirror stores (indexed by schema
    /// position, like [`ColPredicate::matches`] over full-width rows);
    /// missing or mistyped columns fail, NULLs fail.
    pub fn matches_stores(&self, stores: &[ColumnStore], row: usize) -> bool {
        match self {
            ColPredicate::IntGe { col, min } => stores
                .get(*col)
                .is_some_and(|s| !s.is_null(row) && s.ints().is_some_and(|v| v[row] >= *min)),
            ColPredicate::IntBetween { col, min, max } => stores.get(*col).is_some_and(|s| {
                !s.is_null(row) && s.ints().is_some_and(|v| v[row] >= *min && v[row] <= *max)
            }),
            ColPredicate::StrPrefix { col, prefix } => stores.get(*col).is_some_and(|s| {
                !s.is_null(row)
                    && s.str_at(row)
                        .is_some_and(|v| v.starts_with(prefix.as_str()))
            }),
            ColPredicate::And(ps) => ps.iter().all(|p| p.matches_stores(stores, row)),
        }
    }

    /// Vectorized evaluation over mirror stores: appends the **absolute**
    /// indices of rows in `lo..hi` passing the predicate to `sel`.
    /// Column positions address the full schema (stores are the whole
    /// mirror, pre-projection). Missing or mistyped columns select
    /// nothing, mirroring [`ColPredicate::select`].
    pub fn select_stores(&self, stores: &[ColumnStore], lo: usize, hi: usize, sel: &mut Vec<u32>) {
        match self {
            ColPredicate::IntGe { col, min } => {
                let Some(s) = stores.get(*col) else { return };
                let Some(vals) = s.ints() else { return };
                sel.extend(
                    (lo..hi).filter_map(|i| (vals[i] >= *min && !s.is_null(i)).then_some(i as u32)),
                );
            }
            ColPredicate::IntBetween { col, min, max } => {
                let Some(s) = stores.get(*col) else { return };
                let Some(vals) = s.ints() else { return };
                sel.extend((lo..hi).filter_map(|i| {
                    (vals[i] >= *min && vals[i] <= *max && !s.is_null(i)).then_some(i as u32)
                }));
            }
            ColPredicate::StrPrefix { col, prefix } => {
                let Some(s) = stores.get(*col) else { return };
                if !matches!(s.data_type(), DataType::Str) {
                    return;
                }
                for i in lo..hi {
                    if !s.is_null(i) && s.str_at(i).is_some_and(|v| v.starts_with(prefix.as_str()))
                    {
                        sel.push(i as u32);
                    }
                }
            }
            ColPredicate::And(ps) => {
                let Some((first, rest)) = ps.split_first() else {
                    sel.extend((lo..hi).map(|i| i as u32));
                    return;
                };
                let start = sel.len();
                first.select_stores(stores, lo, hi, sel);
                if rest.is_empty() {
                    return;
                }
                // Refine the first child's selection in place.
                let mut w = start;
                for r in start..sel.len() {
                    let row = sel[r];
                    if rest.iter().all(|p| p.matches_stores(stores, row as usize)) {
                        sel[w] = row;
                        w += 1;
                    }
                }
                sel.truncate(w);
            }
        }
    }

    /// Conservative implication test: `true` means every row matching
    /// `other` also matches `self` (`self ⊇ other` as row sets); `false`
    /// makes no claim. The test is syntactic — unrelated predicates
    /// simply fail to compare — so false negatives only cost the caller
    /// a redundant scan, while a false positive would be a correctness
    /// bug (the shared-scan cache uses this to serve a request from a
    /// cached *superset* scan and refine, so served rows must be a
    /// superset of the requested rows).
    pub fn covers(&self, other: &ColPredicate) -> bool {
        match (self, other) {
            // A conjunction covers `other` iff every conjunct does
            // (vacuously true for `And(vec![])`, which matches all rows).
            (ColPredicate::And(ps), _) => ps.iter().all(|p| p.covers(other)),
            // A leaf covers a conjunction if some single conjunct alone
            // implies the leaf (sufficient, not necessary: conservative).
            (_, ColPredicate::And(qs)) => qs.iter().any(|q| self.covers(q)),
            (
                ColPredicate::IntGe { col: c1, min: m1 },
                ColPredicate::IntGe { col: c2, min: m2 },
            ) => c1 == c2 && m1 <= m2,
            (
                ColPredicate::IntGe { col: c1, min: m1 },
                ColPredicate::IntBetween {
                    col: c2, min: m2, ..
                },
            ) => c1 == c2 && m1 <= m2,
            (
                ColPredicate::IntBetween {
                    col: c1,
                    min: m1,
                    max: x1,
                },
                ColPredicate::IntBetween {
                    col: c2,
                    min: m2,
                    max: x2,
                },
            ) => c1 == c2 && m1 <= m2 && x2 <= x1,
            (
                ColPredicate::IntBetween {
                    col: c1,
                    min: m1,
                    max: x1,
                },
                ColPredicate::IntGe { col: c2, min: m2 },
            ) => c1 == c2 && m1 <= m2 && *x1 == i64::MAX,
            (
                ColPredicate::StrPrefix {
                    col: c1,
                    prefix: p1,
                },
                ColPredicate::StrPrefix {
                    col: c2,
                    prefix: p2,
                },
            ) => c1 == c2 && p2.starts_with(p1.as_str()),
            _ => false,
        }
    }

    /// A hull of the union: the tightest predicate *in the algebra*
    /// matching every row that `self` or `other` matches. It is a hull,
    /// not the union — it may admit rows neither input matched (two
    /// disjoint date windows hull to one spanning window), which is
    /// exactly what shared execution wants: scan once with the hull,
    /// refine per query. Same-column leaves widen pairwise; everything
    /// else falls back through [`ColPredicate::covers`] to the
    /// trivially-true `And(vec![])`, which is always a valid hull.
    pub fn union_hull(&self, other: &ColPredicate) -> ColPredicate {
        match (self, other) {
            (
                ColPredicate::IntGe { col: c1, min: m1 },
                ColPredicate::IntGe { col: c2, min: m2 },
            ) if c1 == c2 => ColPredicate::IntGe {
                col: *c1,
                min: (*m1).min(*m2),
            },
            // An open-ended window absorbs a bounded one on the same
            // column: only the smaller lower bound survives.
            (
                ColPredicate::IntGe { col: c1, min: m1 },
                ColPredicate::IntBetween {
                    col: c2, min: m2, ..
                },
            )
            | (
                ColPredicate::IntBetween {
                    col: c2, min: m2, ..
                },
                ColPredicate::IntGe { col: c1, min: m1 },
            ) if c1 == c2 => ColPredicate::IntGe {
                col: *c1,
                min: (*m1).min(*m2),
            },
            (
                ColPredicate::IntBetween {
                    col: c1,
                    min: m1,
                    max: x1,
                },
                ColPredicate::IntBetween {
                    col: c2,
                    min: m2,
                    max: x2,
                },
            ) if c1 == c2 => ColPredicate::IntBetween {
                col: *c1,
                min: (*m1).min(*m2),
                max: (*x1).max(*x2),
            },
            // Longest common prefix. The empty prefix is still a real
            // constraint: both inputs require a non-NULL Str at `col`,
            // and so does `StrPrefix { prefix: "" }`.
            (
                ColPredicate::StrPrefix {
                    col: c1,
                    prefix: p1,
                },
                ColPredicate::StrPrefix {
                    col: c2,
                    prefix: p2,
                },
            ) if c1 == c2 => ColPredicate::StrPrefix {
                col: *c1,
                prefix: p1
                    .chars()
                    .zip(p2.chars())
                    .take_while(|(a, b)| a == b)
                    .map(|(a, _)| a)
                    .collect(),
            },
            _ if self.covers(other) => self.clone(),
            _ if other.covers(self) => other.clone(),
            _ => ColPredicate::And(Vec::new()),
        }
    }

    /// The same predicate re-addressed from schema positions to the
    /// column order of a batch scanned with projection `proj` (leaf `col`
    /// becomes its index *within* `proj`). Returns `None` when the
    /// predicate reads a column `proj` does not carry — the caller then
    /// cannot re-evaluate it against the projected batch.
    pub fn project_columns(&self, proj: &[usize]) -> Option<ColPredicate> {
        match self {
            ColPredicate::IntGe { col, min } => Some(ColPredicate::IntGe {
                col: proj.iter().position(|p| p == col)?,
                min: *min,
            }),
            ColPredicate::IntBetween { col, min, max } => Some(ColPredicate::IntBetween {
                col: proj.iter().position(|p| p == col)?,
                min: *min,
                max: *max,
            }),
            ColPredicate::StrPrefix { col, prefix } => Some(ColPredicate::StrPrefix {
                col: proj.iter().position(|p| p == col)?,
                prefix: prefix.clone(),
            }),
            ColPredicate::And(ps) => Some(ColPredicate::And(
                ps.iter()
                    .map(|p| p.project_columns(proj))
                    .collect::<Option<Vec<_>>>()?,
            )),
        }
    }

    /// Vectorized evaluation into a word bitmap: after the call, bit `i`
    /// of `bits` is set iff row `i` of `batch` passes. `bits` is cleared
    /// and resized to `rows.div_ceil(64)` words. Same addressing and
    /// missing/mistyped-column semantics as [`ColPredicate::select`],
    /// but the inner loops are branchless (a comparison shifted into the
    /// word instead of a conditional push), which is what the shared
    /// pipeline's refinement fan-out wants when one batch is filtered N
    /// times. Expand with [`bitmap_ones`] when indices are needed.
    pub fn select_bitmap(&self, batch: &ColumnBatch, bits: &mut Vec<u64>) {
        let rows = batch.rows();
        bits.clear();
        bits.resize(rows.div_ceil(64), 0);
        self.fill_bitmap(batch, rows, bits);
    }

    /// Core of [`ColPredicate::select_bitmap`]: ORs passing rows into
    /// `bits`, which the caller must present zeroed.
    fn fill_bitmap(&self, batch: &ColumnBatch, rows: usize, bits: &mut [u64]) {
        match self {
            ColPredicate::IntGe { col, min } => {
                let Some(column) = batch.columns().get(*col) else {
                    return;
                };
                let Some(vals) = column.ints() else { return };
                if column.has_nulls() {
                    for (i, v) in vals.iter().enumerate() {
                        let pass = *v >= *min && !column.is_null(i);
                        bits[i >> 6] |= u64::from(pass) << (i & 63);
                    }
                } else {
                    for (i, v) in vals.iter().enumerate() {
                        bits[i >> 6] |= u64::from(*v >= *min) << (i & 63);
                    }
                }
            }
            ColPredicate::IntBetween { col, min, max } => {
                let Some(column) = batch.columns().get(*col) else {
                    return;
                };
                let Some(vals) = column.ints() else { return };
                if column.has_nulls() {
                    for (i, v) in vals.iter().enumerate() {
                        let pass = *v >= *min && *v <= *max && !column.is_null(i);
                        bits[i >> 6] |= u64::from(pass) << (i & 63);
                    }
                } else {
                    for (i, v) in vals.iter().enumerate() {
                        bits[i >> 6] |= u64::from(*v >= *min && *v <= *max) << (i & 63);
                    }
                }
            }
            ColPredicate::StrPrefix { col, prefix } => {
                let Some(column) = batch.columns().get(*col) else {
                    return;
                };
                if !matches!(column.data_type(), DataType::Str) {
                    return;
                }
                for i in 0..column.len() {
                    let pass = !column.is_null(i)
                        && column
                            .str_at(i)
                            .is_some_and(|s| s.starts_with(prefix.as_str()));
                    bits[i >> 6] |= u64::from(pass) << (i & 63);
                }
            }
            ColPredicate::And(ps) => {
                let Some((first, rest)) = ps.split_first() else {
                    set_bit_range(bits, 0, rows);
                    return;
                };
                first.fill_bitmap(batch, rows, bits);
                if rest.is_empty() {
                    return;
                }
                // Conjunction = word-wise AND of the children's bitmaps.
                let mut scratch = vec![0u64; bits.len()];
                for p in rest {
                    p.fill_bitmap(batch, rows, &mut scratch);
                    for (w, s) in bits.iter_mut().zip(&scratch) {
                        *w &= *s;
                    }
                    scratch.fill(0);
                }
            }
        }
    }

    /// Bitmap twin of [`ColPredicate::select_stores`]: after the call,
    /// bit `i` of `bits` is set iff `i ∈ lo..hi` and row `i` of the
    /// mirror passes. `bits` is cleared and resized to
    /// `hi.div_ceil(64)` words — bits index **absolute** row positions,
    /// like the selection vectors `select_stores` appends.
    pub fn select_stores_bitmap(
        &self,
        stores: &[ColumnStore],
        lo: usize,
        hi: usize,
        bits: &mut Vec<u64>,
    ) {
        bits.clear();
        bits.resize(hi.div_ceil(64), 0);
        self.fill_stores_bitmap(stores, lo, hi, bits);
    }

    /// Core of [`ColPredicate::select_stores_bitmap`]: ORs passing rows
    /// in `lo..hi` into `bits`, which the caller must present zeroed.
    fn fill_stores_bitmap(&self, stores: &[ColumnStore], lo: usize, hi: usize, bits: &mut [u64]) {
        match self {
            ColPredicate::IntGe { col, min } => {
                let Some(s) = stores.get(*col) else { return };
                let Some(vals) = s.ints() else { return };
                for i in lo..hi {
                    let pass = vals[i] >= *min && !s.is_null(i);
                    bits[i >> 6] |= u64::from(pass) << (i & 63);
                }
            }
            ColPredicate::IntBetween { col, min, max } => {
                let Some(s) = stores.get(*col) else { return };
                let Some(vals) = s.ints() else { return };
                for i in lo..hi {
                    let pass = vals[i] >= *min && vals[i] <= *max && !s.is_null(i);
                    bits[i >> 6] |= u64::from(pass) << (i & 63);
                }
            }
            ColPredicate::StrPrefix { col, prefix } => {
                let Some(s) = stores.get(*col) else { return };
                if !matches!(s.data_type(), DataType::Str) {
                    return;
                }
                for i in lo..hi {
                    let pass = !s.is_null(i)
                        && s.str_at(i).is_some_and(|v| v.starts_with(prefix.as_str()));
                    bits[i >> 6] |= u64::from(pass) << (i & 63);
                }
            }
            ColPredicate::And(ps) => {
                let Some((first, rest)) = ps.split_first() else {
                    set_bit_range(bits, lo, hi);
                    return;
                };
                first.fill_stores_bitmap(stores, lo, hi, bits);
                if rest.is_empty() {
                    return;
                }
                let mut scratch = vec![0u64; bits.len()];
                for p in rest {
                    p.fill_stores_bitmap(stores, lo, hi, &mut scratch);
                    for (w, s) in bits.iter_mut().zip(&scratch) {
                        *w &= *s;
                    }
                    scratch.fill(0);
                }
            }
        }
    }

    /// Appends every column position the predicate reads to `out`
    /// (duplicates possible). With a projection, `proj ∪ columns` is the
    /// column set whose epochs certify a filtered scan.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ColPredicate::IntGe { col, .. }
            | ColPredicate::IntBetween { col, .. }
            | ColPredicate::StrPrefix { col, .. } => out.push(*col),
            ColPredicate::And(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// The same predicate re-addressed to column position `col` (used
    /// when a projection reorders columns between scan and flow). For an
    /// `And`, every child is re-addressed — conjunctions shipped across a
    /// projection boundary must therefore be single-column.
    pub fn at(&self, col: usize) -> ColPredicate {
        match self {
            ColPredicate::IntGe { min, .. } => ColPredicate::IntGe { col, min: *min },
            ColPredicate::IntBetween { min, max, .. } => ColPredicate::IntBetween {
                col,
                min: *min,
                max: *max,
            },
            ColPredicate::StrPrefix { prefix, .. } => ColPredicate::StrPrefix {
                col,
                prefix: prefix.clone(),
            },
            ColPredicate::And(ps) => ColPredicate::And(ps.iter().map(|p| p.at(col)).collect()),
        }
    }

    /// Nesting depth of the predicate tree: 0 for leaves, one more than
    /// the deepest child for `And` (an empty `And` counts as depth 1).
    pub fn depth(&self) -> usize {
        match self {
            ColPredicate::And(ps) => 1 + ps.iter().map(ColPredicate::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Encodes the predicate in its wire format: one tag byte per node,
    /// column positions as u32, bounds as i64, prefixes as length-framed
    /// UTF-8, `And` as a u16 child count followed by the children.
    ///
    /// Trees nested deeper than the codec's depth cap are not wire-
    /// encodable — [`ColPredicate::decode_from`] would reject the bytes —
    /// and are a construction bug (planners emit flat conjunctions), so
    /// this is debug-asserted: check [`ColPredicate::depth`] first if a
    /// predicate comes from an untrusted composer.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(
            self.depth() <= MAX_PRED_DEPTH,
            "predicate tree too deep to roundtrip the wire codec"
        );
        self.encode_node(buf);
    }

    fn encode_node(&self, buf: &mut BytesMut) {
        match self {
            ColPredicate::IntGe { col, min } => {
                buf.put_u8(PRED_INT_GE);
                buf.put_u32(*col as u32);
                buf.put_i64(*min);
            }
            ColPredicate::IntBetween { col, min, max } => {
                buf.put_u8(PRED_INT_BETWEEN);
                buf.put_u32(*col as u32);
                buf.put_i64(*min);
                buf.put_i64(*max);
            }
            ColPredicate::StrPrefix { col, prefix } => {
                debug_assert!(prefix.len() <= u16::MAX as usize);
                buf.put_u8(PRED_STR_PREFIX);
                buf.put_u32(*col as u32);
                buf.put_u16(prefix.len() as u16);
                buf.put_slice(prefix.as_bytes());
            }
            ColPredicate::And(ps) => {
                debug_assert!(ps.len() <= u16::MAX as usize);
                buf.put_u8(PRED_AND);
                buf.put_u16(ps.len() as u16);
                for p in ps {
                    p.encode_node(buf);
                }
            }
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(0, |buf| self.encode_into(buf))
    }

    /// Decodes one predicate, advancing `buf` past the consumed bytes.
    /// Rejects truncation, unknown tags, non-UTF-8 prefixes, and
    /// conjunctions nested deeper than the codec's depth cap.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<ColPredicate> {
        Self::decode_depth(buf, 0)
    }

    fn decode_depth(buf: &mut impl Buf, depth: usize) -> DbResult<ColPredicate> {
        if depth > MAX_PRED_DEPTH {
            return Err(DbError::Codec("predicate nesting too deep"));
        }
        match buf.read_u8()? {
            PRED_INT_GE => Ok(ColPredicate::IntGe {
                col: buf.read_u32()? as usize,
                min: buf.read_i64()?,
            }),
            PRED_INT_BETWEEN => Ok(ColPredicate::IntBetween {
                col: buf.read_u32()? as usize,
                min: buf.read_i64()?,
                max: buf.read_i64()?,
            }),
            PRED_STR_PREFIX => {
                let col = buf.read_u32()? as usize;
                let len = buf.read_u16()?;
                let prefix = buf.read_str(len.into(), "str-prefix not utf-8")?;
                Ok(ColPredicate::StrPrefix { col, prefix })
            }
            PRED_AND => {
                let n = buf.read_u16()?;
                let n = buf.count(n, MIN_PRED_WIRE_SIZE, "and predicate count exceeds payload")?;
                let mut ps = Vec::with_capacity(n);
                for _ in 0..n {
                    ps.push(Self::decode_depth(buf, depth + 1)?);
                }
                Ok(ColPredicate::And(ps))
            }
            _ => Err(DbError::Codec("unknown predicate tag")),
        }
    }

    /// Decodes a standalone frame holding exactly one predicate.
    pub fn decode(bytes: &Bytes) -> DbResult<ColPredicate> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

/// A column-organized batch of rows — the vectorized counterpart of a
/// tuple batch. All columns always hold the same number of rows.
///
/// Cloning, [`ColumnBatch::slice`], [`ColumnBatch::split`] and
/// [`ColumnBatch::project`] are zero-copy (shared buffers + view
/// windows); equality is logical (see [`Column`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<Column>,
    rows: usize,
}

/// An exclusive append session over a whole [`ColumnBatch`]: the
/// copy-on-write exclusivity check runs once at construction, and row /
/// column counters are written back once on drop — so hot scan loops
/// push row after row at plain `Vec::push` cost.
pub struct BatchAppender<'a> {
    cols: Vec<ColMut<'a>>,
    rows: &'a mut usize,
    /// Rows the batch held when the session began.
    start: usize,
    /// Complete rows appended by this session.
    added: usize,
}

impl BatchAppender<'_> {
    /// Appends one row given in the batch's column order. On `Err` the
    /// batch is left with ragged columns and must be discarded (see
    /// [`ColumnBatch::push_row`]).
    pub fn push_row(&mut self, values: &[Value]) -> DbResult<()> {
        if values.len() != self.cols.len() {
            return Err(DbError::SchemaMismatch("row arity vs batch arity"));
        }
        let row = self.start + self.added;
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v, row)?;
        }
        self.added += 1;
        Ok(())
    }

    /// Appends the `proj` positions of a full-width row — the projection
    /// pushdown entry point used by scans: only the projected values are
    /// ever copied. On `Err` the batch must be discarded.
    pub fn push_projected(&mut self, values: &[Value], proj: &[usize]) -> DbResult<()> {
        if proj.len() != self.cols.len() {
            return Err(DbError::SchemaMismatch("projection arity vs batch arity"));
        }
        let row = self.start + self.added;
        for (col, &i) in self.cols.iter_mut().zip(proj) {
            let v = values
                .get(i)
                .ok_or(DbError::SchemaMismatch("projection index out of range"))?;
            col.push(v, row)?;
        }
        self.added += 1;
        Ok(())
    }

    /// Pre-sizes every column's value buffer for `n` more rows.
    pub fn reserve(&mut self, n: usize) {
        for col in &mut self.cols {
            col.reserve(n);
        }
    }

    /// Bulk-appends rows `lo..hi` of each store — `stores` given in the
    /// batch's column order (i.e. already projected). This is the
    /// mirror-scan fast path: one typed range copy per column instead of
    /// one tuple walk per row. On `Err` (arity or type mismatch) the
    /// batch may be ragged and must be discarded.
    pub fn extend_from_stores(
        &mut self,
        stores: &[&ColumnStore],
        lo: usize,
        hi: usize,
    ) -> DbResult<()> {
        if stores.len() != self.cols.len() {
            return Err(DbError::SchemaMismatch("projection arity vs batch arity"));
        }
        let dst_start = self.start + self.added;
        for (col, store) in self.cols.iter_mut().zip(stores) {
            col.extend_from_store(store, lo, hi, dst_start)?;
        }
        self.added += hi - lo;
        Ok(())
    }

    /// Gathers the rows listed in `sel` (store row indices) from each
    /// store — the filtered-scan counterpart of
    /// [`BatchAppender::extend_from_stores`]. On `Err` the batch must be
    /// discarded.
    pub fn extend_from_stores_sel(&mut self, stores: &[&ColumnStore], sel: &[u32]) -> DbResult<()> {
        if stores.len() != self.cols.len() {
            return Err(DbError::SchemaMismatch("projection arity vs batch arity"));
        }
        let dst_start = self.start + self.added;
        for (col, store) in self.cols.iter_mut().zip(stores) {
            col.extend_from_store_sel(store, sel, dst_start)?;
        }
        self.added += sel.len();
        Ok(())
    }
}

impl Drop for BatchAppender<'_> {
    fn drop(&mut self) {
        // Publish the session's row count to every column and the batch.
        // Values of a row abandoned mid-append (type error) sit beyond the
        // published length and are re-materialized away by the next
        // copy-on-write — the batch is documented as discard-on-error
        // regardless.
        let rows = self.start + self.added;
        for col in &mut self.cols {
            *col.len = rows;
        }
        *self.rows = rows;
    }
}

impl ColumnBatch {
    /// An empty batch with the given column types.
    pub fn new(types: &[DataType]) -> Self {
        Self {
            columns: types.iter().map(|&ty| Column::new(ty)).collect(),
            rows: 0,
        }
    }

    /// An empty batch typed from a projection of `schema`.
    ///
    /// # Panics
    /// Panics if a projection index is out of range — projections are
    /// resolved against the checked schema, so this is a plan bug.
    pub fn for_projection(schema: &Schema, proj: &[usize]) -> Self {
        Self::new(
            &proj
                .iter()
                .map(|&i| schema.columns()[i].ty)
                .collect::<Vec<_>>(),
        )
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One column.
    ///
    /// # Panics
    /// Panics if out of range; operators resolve positions against the
    /// batch's schema before touching columns.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The column types in order.
    pub fn types(&self) -> Vec<DataType> {
        self.columns.iter().map(Column::data_type).collect()
    }

    /// An exclusive append session (one copy-on-write check for the whole
    /// batch; scans hold this across every row they materialize).
    pub fn appender(&mut self) -> BatchAppender<'_> {
        let Self { columns, rows } = self;
        let start = *rows;
        BatchAppender {
            cols: columns.iter_mut().map(Column::col_mut).collect(),
            rows,
            start,
            added: 0,
        }
    }

    /// Appends one row given in this batch's column order.
    ///
    /// On `Err` the batch is left with ragged columns and must be
    /// discarded — rows reaching this path were schema-checked at insert,
    /// so a mismatch means the batch was typed for another table.
    pub fn push_row(&mut self, values: &[Value]) -> DbResult<()> {
        self.appender().push_row(values)
    }

    /// Appends the `proj` positions of a full-width row — the projection
    /// pushdown entry point used by scans: only the projected values are
    /// ever copied. On `Err` the batch must be discarded (see
    /// [`ColumnBatch::push_row`]).
    pub fn push_projected(&mut self, values: &[Value], proj: &[usize]) -> DbResult<()> {
        self.appender().push_projected(values, proj)
    }

    /// Materializes row `i` as a tuple (late materialization boundary).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row_tuple(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Materializes every row (row-path interop and tests).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.rows).map(|i| self.row_tuple(i)).collect()
    }

    /// Builds a batch from tuples with the given column types.
    pub fn from_tuples(types: &[DataType], tuples: &[Tuple]) -> DbResult<Self> {
        let mut out = Self::new(types);
        {
            let mut app = out.appender();
            for t in tuples {
                app.push_row(t.values())?;
            }
        }
        Ok(out)
    }

    /// Modeled wire size in bytes — O(columns), derived from view
    /// lengths, so producers never re-walk rows to size a batch.
    pub fn bytes(&self) -> usize {
        6 + self.columns.iter().map(Column::wire_size).sum::<usize>()
    }

    /// Gathers the rows listed in `sel` (a selection vector) into a new
    /// batch — how vectorized filters materialize their survivors.
    pub fn take(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.take(sel)).collect(),
            rows: sel.len(),
        }
    }

    /// Keeps only the listed columns, in the given order. Zero-copy: the
    /// new batch shares the survivors' buffers.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn project(&self, cols: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: cols.iter().map(|&i| self.columns[i].clone()).collect(),
            rows: self.rows,
        }
    }

    /// A zero-copy view of rows `lo..hi`: O(columns) metadata, no values
    /// copied — every view shares the original buffers.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnBatch {
        assert!(
            lo <= hi && hi <= self.rows,
            "slice {lo}..{hi} of {}",
            self.rows
        );
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.slice(lo, hi)).collect(),
            rows: hi - lo,
        }
    }

    /// Splits into views of at most `batch_rows` rows (wire batching).
    /// Zero-copy: O(batches × columns) total, independent of row count —
    /// this is what keeps the producer path free of per-batch memcpys.
    ///
    /// # Panics
    /// Panics if `batch_rows` is zero.
    pub fn split(self, batch_rows: usize) -> Vec<ColumnBatch> {
        assert!(batch_rows > 0);
        if self.rows <= batch_rows {
            return if self.rows == 0 {
                Vec::new()
            } else {
                vec![self]
            };
        }
        let mut out = Vec::with_capacity(self.rows.div_ceil(batch_rows));
        let mut lo = 0;
        while lo < self.rows {
            let hi = (lo + batch_rows).min(self.rows);
            out.push(self.slice(lo, hi));
            lo = hi;
        }
        out
    }

    /// Encodes the batch in the columnar wire format: a `(rows, ncols)`
    /// header, then per column one tag byte, a null-bitmap flag (+ bitmap
    /// when set) and the values packed contiguously — replacing the
    /// per-value tags of the row encoding. Views are rebased while
    /// writing (string offsets shifted, bitmaps repacked), so an encoded
    /// view is indistinguishable from an encoded copy.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(self.columns.len() <= u16::MAX as usize);
        buf.put_u32(self.rows as u32);
        buf.put_u16(self.columns.len() as u16);
        for col in &self.columns {
            match &col.data {
                ColumnData::Int(_) => buf.put_u8(TAG_INT),
                ColumnData::Float(_) => buf.put_u8(TAG_FLOAT),
                ColumnData::Str { .. } => buf.put_u8(TAG_STR),
            }
            if !col.has_nulls_in_view() {
                buf.put_u8(0);
            } else {
                buf.put_u8(1);
                // Repack the window's bits into a view-local bitmap padded
                // to the full row count for a self-describing layout.
                let mut bm = vec![0u8; self.rows.div_ceil(8)];
                for i in 0..col.len {
                    if col.is_null(i) {
                        bm[i / 8] |= 1 << (i % 8);
                    }
                }
                buf.put_slice(&bm);
            }
            match &col.data {
                ColumnData::Int(_) => {
                    for &i in col.ints().expect("int column") {
                        buf.put_i64(i);
                    }
                }
                ColumnData::Float(_) => {
                    for &f in col.floats().expect("float column") {
                        buf.put_f64(f);
                    }
                }
                ColumnData::Str { offsets, arena } => {
                    let base = offsets[col.off];
                    for &o in &offsets[col.off..=col.off + col.len] {
                        buf.put_u32(o - base);
                    }
                    let end = offsets[col.off + col.len];
                    buf.put_slice(&arena.as_bytes()[base as usize..end as usize]);
                }
            }
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(self.bytes(), |buf| self.encode_into(buf))
    }

    /// Decodes one batch, advancing `buf` past the consumed bytes.
    /// Rejects truncation, unknown tags, and malformed string layouts.
    /// Each column payload is bounds-checked once and converted from one
    /// slice.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<ColumnBatch> {
        let rows = buf.read_u32()? as usize;
        let ncols = buf.read_u16()?;
        if rows > MAX_DECODE_ROWS {
            return Err(DbError::Codec("column batch row count implausible"));
        }
        let ncols = buf.count(ncols, MIN_COLUMN_WIRE_SIZE, "column count exceeds payload")?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let tag = buf.read_u8()?;
            let nulls = if buf.read_bool("bad null-bitmap flag")? {
                let mut bm = buf.read_slice(rows.div_ceil(8), <[u8]>::to_vec)?;
                // Canonicalize to the builder's lazy form (bits are only
                // ever set, so an in-memory bitmap never ends in a zero
                // byte).
                while bm.last() == Some(&0) {
                    bm.pop();
                }
                bm
            } else {
                Vec::new()
            };
            let data = match tag {
                TAG_INT => {
                    let ints = buf.read_slice(8 * rows, |b| unpack(b, i64::from_be_bytes))?;
                    ColumnData::Int(Arc::new(ints))
                }
                TAG_FLOAT => {
                    let floats = buf.read_slice(8 * rows, |b| unpack(b, f64::from_be_bytes))?;
                    ColumnData::Float(Arc::new(floats))
                }
                TAG_STR => {
                    let offsets =
                        buf.read_slice(4 * (rows + 1), |b| unpack(b, u32::from_be_bytes))?;
                    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
                        return Err(DbError::Codec("str offsets not monotone"));
                    }
                    let arena = buf.read_str(offsets[rows] as usize, "str not utf-8")?;
                    if offsets.iter().any(|&o| !arena.is_char_boundary(o as usize)) {
                        return Err(DbError::Codec("str offset splits a character"));
                    }
                    ColumnData::Str {
                        offsets: Arc::new(offsets),
                        arena: Arc::new(arena),
                    }
                }
                _ => return Err(DbError::Codec("unknown column tag")),
            };
            columns.push(Column {
                data,
                nulls: Arc::new(nulls),
                off: 0,
                len: rows,
            });
        }
        Ok(ColumnBatch { columns, rows })
    }

    /// Decodes a standalone frame holding exactly one batch.
    pub fn decode(bytes: &Bytes) -> DbResult<ColumnBatch> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn types() -> Vec<DataType> {
        vec![DataType::Int, DataType::Float, DataType::Str]
    }

    fn sample() -> ColumnBatch {
        let mut b = ColumnBatch::new(&types());
        b.push_row(&[Value::Int(1), Value::Float(1.5), Value::str("alpha")])
            .unwrap();
        b.push_row(&[Value::Int(-2), Value::Null, Value::str("")])
            .unwrap();
        b.push_row(&[Value::Null, Value::Float(2.5), Value::Null])
            .unwrap();
        b
    }

    /// Four nullable columns over ten rows, so every null bitmap spans two
    /// bytes. The scan codec tests use it too.
    pub(crate) fn wide_sample() -> ColumnBatch {
        let mut b =
            ColumnBatch::new(&[DataType::Int, DataType::Float, DataType::Str, DataType::Int]);
        for i in 0..10i64 {
            let null_at = (i % 4) as usize;
            let row: Vec<Value> = [
                Value::Int(i * 1_000 - 4_000),
                Value::Float(i as f64 / 4.0),
                Value::str("x".repeat(i as usize)),
                Value::Int(-i),
            ]
            .into_iter()
            .enumerate()
            .map(|(c, v)| if c == null_at { Value::Null } else { v })
            .collect();
            b.push_row(&row).unwrap();
        }
        b
    }

    #[test]
    fn push_and_materialize_roundtrip() {
        let b = sample();
        assert_eq!(b.rows(), 3);
        assert_eq!(b.arity(), 3);
        assert_eq!(
            b.row_tuple(1).values(),
            &[Value::Int(-2), Value::Null, Value::str("")]
        );
        assert_eq!(b.row_tuple(2).get(0), &Value::Null);
        let tuples = b.to_tuples();
        let back = ColumnBatch::from_tuples(&types(), &tuples).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = ColumnBatch::new(&[DataType::Int]);
        assert!(b.push_row(&[Value::str("x")]).is_err());
        assert!(b.push_row(&[Value::Int(1), Value::Int(2)]).is_err());
        assert!(b.push_row(&[Value::Int(1)]).is_ok());
    }

    #[test]
    fn projection_pushdown_copies_only_projected() {
        let mut b = ColumnBatch::new(&[DataType::Str, DataType::Int]);
        let wide = [
            Value::Int(7),
            Value::str("keep"),
            Value::Float(9.9),
            Value::Int(42),
        ];
        b.push_projected(&wide, &[1, 3]).unwrap();
        assert_eq!(
            b.row_tuple(0).values(),
            &[Value::str("keep"), Value::Int(42)]
        );
        assert!(b.push_projected(&wide, &[0]).is_err()); // arity
        assert!(b.push_projected(&wide, &[1, 9]).is_err()); // range
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = sample();
        wire::assert_codec_contract(
            &[b.clone(), wide_sample()],
            ColumnBatch::encode,
            ColumnBatch::decode,
        );
        // The modeled size upper-bounds the encoding closely.
        let enc = b.encode();
        assert!(enc.len() <= b.bytes() + 8, "{} vs {}", enc.len(), b.bytes());
    }

    #[test]
    fn empty_batch_roundtrip() {
        let empties = [ColumnBatch::new(&types()), ColumnBatch::new(&[])];
        wire::assert_codec_contract(&empties, ColumnBatch::encode, ColumnBatch::decode);
    }

    #[test]
    fn decode_rejects_truncation() {
        // Cut inside the first int value: the reader's truncation error.
        assert_eq!(
            ColumnBatch::decode(&sample().encode().slice(0..12)),
            Err(DbError::Codec(wire::TRUNCATED))
        );
        // A 6-byte header claiming 65 535 columns fails on the count,
        // before anything is reserved for them.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u16(u16::MAX);
        assert_eq!(
            ColumnBatch::decode(&buf.freeze()),
            Err(DbError::Codec("column count exceeds payload"))
        );
    }

    #[test]
    fn decode_rejects_unknown_tag_and_bad_offsets() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u16(1);
        buf.put_u8(99);
        buf.put_u8(0);
        assert_eq!(
            ColumnBatch::decode(&buf.freeze()),
            Err(DbError::Codec("unknown column tag"))
        );
        // Non-monotone string offsets.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u16(1);
        buf.put_u8(TAG_STR);
        buf.put_u8(0);
        buf.put_u32(0);
        buf.put_u32(4);
        buf.put_slice(b"ab"); // arena shorter than declared
        assert!(ColumnBatch::decode(&buf.freeze()).is_err());
    }

    #[test]
    fn columnar_wire_beats_row_wire_for_ints() {
        // 3 int columns, 100 rows: row encoding pays a tag per value.
        let types = vec![DataType::Int; 3];
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2), Value::Int(i * 3)]))
            .collect();
        let col = ColumnBatch::from_tuples(&types, &tuples).unwrap();
        let row_bytes: usize = tuples.iter().map(Tuple::wire_size).sum();
        assert!(
            col.bytes() < row_bytes,
            "columnar {} !< row {row_bytes}",
            col.bytes()
        );
        assert!(col.encode().len() < row_bytes);
    }

    #[test]
    fn take_gathers_selection() {
        let b = sample();
        let sel = vec![2u32, 0];
        let took = b.take(&sel);
        assert_eq!(took.rows(), 2);
        assert_eq!(took.row_tuple(0), b.row_tuple(2));
        assert_eq!(took.row_tuple(1), b.row_tuple(0));
    }

    #[test]
    fn slice_and_split_preserve_rows() {
        let mut b = ColumnBatch::new(&types());
        for i in 0..10 {
            b.push_row(&[Value::Int(i), Value::Float(i as f64), Value::str("s")])
                .unwrap();
        }
        let all = b.to_tuples();
        let parts = b.split(4);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(ColumnBatch::rows).sum::<usize>(), 10);
        let glued: Vec<Tuple> = parts.iter().flat_map(ColumnBatch::to_tuples).collect();
        assert_eq!(glued, all);
        assert!(ColumnBatch::new(&types()).split(4).is_empty());
    }

    #[test]
    fn slice_split_and_project_are_zero_copy() {
        let mut b = ColumnBatch::new(&types());
        for i in 0..32 {
            b.push_row(&[Value::Int(i), Value::Float(0.5), Value::str("zc")])
                .unwrap();
        }
        let view = b.slice(5, 21);
        for (c, v) in b.columns().iter().zip(view.columns()) {
            assert!(c.shares_buffer_with(v), "slice must share buffers");
        }
        let projected = b.project(&[2, 0]);
        assert!(projected.column(0).shares_buffer_with(b.column(2)));
        assert!(projected.column(1).shares_buffer_with(b.column(0)));
        let original = b.clone();
        for part in b.split(7) {
            for (c, v) in original.columns().iter().zip(part.columns()) {
                assert!(c.shares_buffer_with(v), "split must share buffers");
            }
        }
    }

    #[test]
    fn views_roundtrip_codec_and_equal_copies() {
        let b = sample();
        let view = b.slice(1, 3);
        // Logical equality with a materialized copy of the same rows.
        let copy = ColumnBatch::from_tuples(&types(), &view.to_tuples()).unwrap();
        assert_eq!(view, copy);
        assert_eq!(copy, view);
        // The view encodes as if it were the copy.
        assert_eq!(ColumnBatch::decode(&view.encode()).unwrap(), copy);
        // A view over the null-free prefix drops the bitmap on the wire.
        let head = b.slice(0, 1);
        assert_eq!(
            ColumnBatch::decode(&head.encode()).unwrap(),
            ColumnBatch::from_tuples(&types(), &head.to_tuples()).unwrap()
        );
    }

    #[test]
    fn mutating_a_view_copies_on_write() {
        let mut b = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        for i in 0..8 {
            b.push_row(&[Value::Int(i), Value::str("v")]).unwrap();
        }
        let baseline = b.to_tuples();
        let mut view = b.slice(2, 5);
        view.push_row(&[Value::Int(99), Value::str("new")]).unwrap();
        assert_eq!(view.rows(), 4);
        assert_eq!(view.row_tuple(0), baseline[2]);
        assert_eq!(
            view.row_tuple(3).values(),
            &[Value::Int(99), Value::str("new")]
        );
        // The original batch is untouched by the view's append.
        assert_eq!(b.to_tuples(), baseline);
        assert!(!view.column(0).shares_buffer_with(b.column(0)));
    }

    #[test]
    fn predicates_row_and_vectorized_agree() {
        let mut b = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        for (i, s) in [(5i64, "Alpha"), (20, "beta"), (30, "Ax"), (1, "A")] {
            b.push_row(&[Value::Int(i), Value::str(s)]).unwrap();
        }
        b.push_row(&[Value::Null, Value::Null]).unwrap();
        for pred in [
            ColPredicate::IntGe { col: 0, min: 10 },
            ColPredicate::IntBetween {
                col: 0,
                min: 2,
                max: 20,
            },
            ColPredicate::StrPrefix {
                col: 1,
                prefix: "A".into(),
            },
            ColPredicate::And(vec![
                ColPredicate::IntBetween {
                    col: 0,
                    min: 1,
                    max: 30,
                },
                ColPredicate::StrPrefix {
                    col: 1,
                    prefix: "A".into(),
                },
            ]),
            ColPredicate::And(vec![]),
        ] {
            let mut sel = Vec::new();
            pred.select(&b, &mut sel);
            let by_row: Vec<u32> = (0..b.rows())
                .filter(|&i| pred.matches_tuple(&b.row_tuple(i)))
                .map(|i| i as u32)
                .collect();
            assert_eq!(sel, by_row, "{pred:?}");
            let by_batch_row: Vec<u32> = (0..b.rows())
                .filter(|&i| pred.matches_row(&b, i))
                .map(|i| i as u32)
                .collect();
            assert_eq!(sel, by_batch_row, "matches_row of {pred:?}");
            if !matches!(pred, ColPredicate::And(ref ps) if ps.is_empty()) {
                assert!(!sel.contains(&4), "null row must fail {pred:?}");
            }
        }
    }

    #[test]
    fn predicate_readdress() {
        let p = ColPredicate::StrPrefix {
            col: 5,
            prefix: "A".into(),
        };
        assert_eq!(
            p.at(0),
            ColPredicate::StrPrefix {
                col: 0,
                prefix: "A".into()
            }
        );
        let range = ColPredicate::And(vec![ColPredicate::IntBetween {
            col: 3,
            min: 1,
            max: 9,
        }]);
        assert_eq!(
            range.at(1),
            ColPredicate::And(vec![ColPredicate::IntBetween {
                col: 1,
                min: 1,
                max: 9
            }])
        );
    }

    #[test]
    fn predicate_codec_roundtrips() {
        let preds = [
            ColPredicate::IntGe { col: 4, min: -7 },
            ColPredicate::IntBetween {
                col: 0,
                min: 20070101,
                max: 20121231,
            },
            ColPredicate::StrPrefix {
                col: 5,
                prefix: "Aß漢".into(),
            },
            ColPredicate::And(vec![]),
            ColPredicate::And(vec![
                ColPredicate::IntGe { col: 1, min: 0 },
                ColPredicate::And(vec![ColPredicate::StrPrefix {
                    col: 2,
                    prefix: String::new(),
                }]),
            ]),
        ];
        wire::assert_codec_contract(&preds, ColPredicate::encode, ColPredicate::decode);
    }

    #[test]
    fn predicate_codec_rejects_bad_input() {
        let mut buf = BytesMut::new();
        buf.put_u8(200);
        assert_eq!(
            ColPredicate::decode(&buf.freeze()),
            Err(DbError::Codec("unknown predicate tag"))
        );
        // Deep And nesting is bounded.
        let mut buf = BytesMut::new();
        for _ in 0..(MAX_PRED_DEPTH + 2) {
            buf.put_u8(PRED_AND);
            buf.put_u16(1);
        }
        buf.put_u8(PRED_INT_GE);
        buf.put_u32(0);
        buf.put_i64(0);
        assert_eq!(
            ColPredicate::decode(&buf.freeze()),
            Err(DbError::Codec("predicate nesting too deep"))
        );
        // Non-UTF-8 prefix payload.
        let mut buf = BytesMut::new();
        buf.put_u8(PRED_STR_PREFIX);
        buf.put_u32(0);
        buf.put_u16(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(
            ColPredicate::decode(&buf.freeze()),
            Err(DbError::Codec("str-prefix not utf-8"))
        );
        // An `And` claiming 65 535 children with none behind it.
        let mut buf = BytesMut::new();
        buf.put_u8(PRED_AND);
        buf.put_u16(u16::MAX);
        assert_eq!(
            ColPredicate::decode(&buf.freeze()),
            Err(DbError::Codec("and predicate count exceeds payload"))
        );
    }

    #[test]
    fn predicate_depth_cap_is_symmetric_at_the_boundary() {
        // Exactly MAX_PRED_DEPTH levels of And: encodable AND decodable.
        let mut p = ColPredicate::IntGe { col: 0, min: 1 };
        for _ in 0..MAX_PRED_DEPTH {
            p = ColPredicate::And(vec![p]);
        }
        assert_eq!(p.depth(), MAX_PRED_DEPTH);
        assert_eq!(ColPredicate::decode(&p.encode()).unwrap(), p);
        // One deeper is not wire-encodable (debug-asserted on encode,
        // rejected on decode — see `predicate_codec_rejects_bad_input`).
        let deeper = ColPredicate::And(vec![p]);
        assert_eq!(deeper.depth(), MAX_PRED_DEPTH + 1);
    }

    #[test]
    fn column_store_push_set_and_diff() {
        let mut s = ColumnStore::new(DataType::Str);
        s.push(&Value::str("alpha")).unwrap();
        s.push(&Value::Null).unwrap();
        s.push(&Value::str("")).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(0), Value::str("alpha"));
        assert_eq!(s.value(1), Value::Null);
        assert_eq!(s.value(2), Value::str(""));
        // Identical overwrite reports no change (epoch diff signal).
        assert!(!s.set(0, &Value::str("alpha")).unwrap());
        assert!(s.set(0, &Value::str("beta")).unwrap());
        assert_eq!(s.value(0), Value::str("beta"));
        // Null transitions both ways are changes; repeated nulls are not.
        assert!(s.set(0, &Value::Null).unwrap());
        assert!(!s.set(0, &Value::Null).unwrap());
        assert!(s.set(1, &Value::str("")).unwrap());
        assert_eq!(s.value(1), Value::str(""));
        assert!(!s.is_null(1));
        // Type mismatch is an error, not a silent write.
        assert!(s.set(2, &Value::Int(1)).is_err());
        assert!(s.push(&Value::Float(0.5)).is_err());

        let mut i = ColumnStore::new(DataType::Int);
        i.push(&Value::Int(7)).unwrap();
        assert!(!i.set(0, &Value::Int(7)).unwrap());
        assert!(i.set(0, &Value::Int(8)).unwrap());
        let mut f = ColumnStore::new(DataType::Float);
        f.push(&Value::Float(0.0)).unwrap();
        assert!(!f.set(0, &Value::Float(0.0)).unwrap());
        assert!(
            f.set(0, &Value::Float(-0.0)).unwrap(),
            "-0.0 is a new bit pattern"
        );
        assert!(f.set(0, &Value::Float(f64::NAN)).unwrap());
        assert!(
            !f.set(0, &Value::Float(f64::NAN)).unwrap(),
            "same NaN bits: no change"
        );
    }

    #[test]
    fn extend_from_stores_matches_per_row_pushes() {
        // Build stores with nulls and updated strings (garbage in the
        // arena), copy ranges and selections into batches, and compare
        // with the value-at-a-time oracle.
        let mut ints = ColumnStore::new(DataType::Int);
        let mut strs = ColumnStore::new(DataType::Str);
        for i in 0..20i64 {
            let iv = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            let sv = if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{i}"))
            };
            ints.push(&iv).unwrap();
            strs.push(&sv).unwrap();
        }
        // In-place updates: repointed spans must copy correctly.
        strs.set(3, &Value::str("replaced-three")).unwrap();
        ints.set(4, &Value::Int(-4)).unwrap();

        let stores = [&ints, &strs];
        let mut bulk = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        {
            let mut app = bulk.appender();
            app.extend_from_stores(&stores, 2, 13).unwrap();
        }
        let mut oracle = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        for i in 2..13 {
            oracle.push_row(&[ints.value(i), strs.value(i)]).unwrap();
        }
        assert_eq!(bulk, oracle);

        let sel: Vec<u32> = vec![0, 3, 4, 7, 19];
        let mut gathered = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        {
            let mut app = gathered.appender();
            app.extend_from_stores_sel(&stores, &sel).unwrap();
        }
        let mut oracle = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        for &i in &sel {
            let i = i as usize;
            oracle.push_row(&[ints.value(i), strs.value(i)]).unwrap();
        }
        assert_eq!(gathered, oracle);

        // Arity and type mismatches surface as errors.
        let mut wrong = ColumnBatch::new(&[DataType::Float, DataType::Str]);
        assert!(wrong.appender().extend_from_stores(&stores, 0, 1).is_err());
        let mut short = ColumnBatch::new(&[DataType::Int]);
        assert!(short.appender().extend_from_stores(&stores, 0, 1).is_err());
    }

    #[test]
    fn store_predicates_agree_with_row_evaluation() {
        let mut w = ColumnStore::new(DataType::Int);
        let mut state = ColumnStore::new(DataType::Str);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (i, s) in [(5i64, "Alpha"), (20, "beta"), (30, "Ax"), (1, "A")] {
            w.push(&Value::Int(i)).unwrap();
            state.push(&Value::str(s)).unwrap();
            rows.push(vec![Value::Int(i), Value::str(s)]);
        }
        w.push(&Value::Null).unwrap();
        state.push(&Value::Null).unwrap();
        rows.push(vec![Value::Null, Value::Null]);
        let stores = vec![w, state];
        for pred in [
            ColPredicate::IntGe { col: 0, min: 10 },
            ColPredicate::IntBetween {
                col: 0,
                min: 2,
                max: 20,
            },
            ColPredicate::StrPrefix {
                col: 1,
                prefix: "A".into(),
            },
            ColPredicate::And(vec![
                ColPredicate::IntGe { col: 0, min: 2 },
                ColPredicate::StrPrefix {
                    col: 1,
                    prefix: "A".into(),
                },
            ]),
            ColPredicate::And(vec![]),
            ColPredicate::IntGe { col: 9, min: 0 }, // missing column
            ColPredicate::IntGe { col: 1, min: 0 }, // mistyped column
        ] {
            let mut sel = Vec::new();
            pred.select_stores(&stores, 0, rows.len(), &mut sel);
            let by_row: Vec<u32> = (0..rows.len())
                .filter(|&i| pred.matches(&rows[i]))
                .map(|i| i as u32)
                .collect();
            assert_eq!(sel, by_row, "{pred:?}");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    pred.matches_stores(&stores, i),
                    pred.matches(row),
                    "{pred:?} row {i}"
                );
            }
            // A sub-range selects exactly the full selection's overlap.
            let mut sub = Vec::new();
            pred.select_stores(&stores, 1, 3, &mut sub);
            let expect: Vec<u32> = by_row
                .iter()
                .copied()
                .filter(|&i| (1..3).contains(&(i as usize)))
                .collect();
            assert_eq!(sub, expect, "{pred:?} subrange");
        }
    }

    #[test]
    fn collect_columns_walks_conjunctions() {
        let p = ColPredicate::And(vec![
            ColPredicate::IntGe { col: 4, min: 0 },
            ColPredicate::And(vec![ColPredicate::StrPrefix {
                col: 2,
                prefix: "A".into(),
            }]),
        ]);
        let mut cols = Vec::new();
        p.collect_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![2, 4]);
        let mut none = Vec::new();
        ColPredicate::And(vec![]).collect_columns(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn for_projection_types_from_schema() {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Str),
                ColumnDef::new("c", DataType::Float),
            ],
            &["a"],
        );
        let b = ColumnBatch::for_projection(&schema, &[2, 0]);
        assert_eq!(b.types(), vec![DataType::Float, DataType::Int]);
    }

    #[test]
    fn bytes_tracks_growth_without_row_walks() {
        let mut b = ColumnBatch::new(&types());
        let empty = b.bytes();
        b.push_row(&[Value::Int(1), Value::Float(0.5), Value::str("abcd")])
            .unwrap();
        // int 8 + float 8 + str offset 4 + 4 arena bytes
        assert_eq!(b.bytes(), empty + 8 + 8 + 4 + 4);
    }

    #[test]
    fn appender_amortizes_pushes() {
        let mut b = ColumnBatch::new(&types());
        {
            let mut app = b.appender();
            app.reserve(16);
            for i in 0..16 {
                app.push_row(&[Value::Int(i), Value::Float(i as f64), Value::str("x")])
                    .unwrap();
            }
            assert!(app.push_projected(&[Value::Int(0)], &[0, 0, 0, 0]).is_err());
        }
        assert_eq!(b.rows(), 16); // the failed ragged push added no row
        assert_eq!(b.column(0).ints().unwrap().len(), 16);
    }

    /// Predicates spanning every variant plus the degenerate shapes
    /// (empty conjunction, missing column, mistyped column) — the cases
    /// the bitmap evaluators must agree with the append evaluators on.
    fn bitmap_preds() -> Vec<ColPredicate> {
        vec![
            ColPredicate::IntGe { col: 0, min: 10 },
            ColPredicate::IntBetween {
                col: 0,
                min: 5,
                max: 25,
            },
            ColPredicate::StrPrefix {
                col: 1,
                prefix: "A".into(),
            },
            ColPredicate::And(vec![
                ColPredicate::IntGe { col: 0, min: 3 },
                ColPredicate::StrPrefix {
                    col: 1,
                    prefix: "A".into(),
                },
            ]),
            ColPredicate::And(vec![ColPredicate::IntGe { col: 0, min: 20 }]),
            ColPredicate::And(vec![]),
            ColPredicate::IntGe { col: 9, min: 0 }, // missing column
            ColPredicate::IntGe { col: 1, min: 0 }, // mistyped column
            ColPredicate::StrPrefix {
                col: 0,
                prefix: "A".into(),
            }, // mistyped column
        ]
    }

    #[test]
    fn bitmap_select_agrees_with_append_select() {
        // 150 rows: multiple bitmap words plus a partial tail word.
        let mut b = ColumnBatch::new(&[DataType::Int, DataType::Str]);
        for i in 0..150i64 {
            let iv = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 40)
            };
            let sv = if i % 13 == 0 {
                Value::Null
            } else if i % 3 == 0 {
                Value::str(format!("A{i}"))
            } else {
                Value::str(format!("b{i}"))
            };
            b.push_row(&[iv, sv]).unwrap();
        }
        let mut bits = Vec::new();
        let mut from_bits = Vec::new();
        for pred in bitmap_preds() {
            let mut sel = Vec::new();
            pred.select(&b, &mut sel);
            pred.select_bitmap(&b, &mut bits);
            assert_eq!(bits.len(), b.rows().div_ceil(64), "{pred:?}");
            from_bits.clear();
            bitmap_ones(&bits, &mut from_bits);
            assert_eq!(from_bits, sel, "{pred:?}");
        }
    }

    #[test]
    fn stores_bitmap_select_agrees_with_append_select() {
        let mut ints = ColumnStore::new(DataType::Int);
        let mut strs = ColumnStore::new(DataType::Str);
        for i in 0..150i64 {
            let iv = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 40)
            };
            let sv = if i % 13 == 0 {
                Value::Null
            } else if i % 3 == 0 {
                Value::str(format!("A{i}"))
            } else {
                Value::str(format!("b{i}"))
            };
            ints.push(&iv).unwrap();
            strs.push(&sv).unwrap();
        }
        let stores = vec![ints, strs];
        let mut bits = Vec::new();
        let mut from_bits = Vec::new();
        // Ranges crossing word boundaries, word-aligned, and empty.
        for (lo, hi) in [(0usize, 150usize), (3, 130), (64, 128), (70, 70)] {
            for pred in bitmap_preds() {
                let mut sel = Vec::new();
                pred.select_stores(&stores, lo, hi, &mut sel);
                pred.select_stores_bitmap(&stores, lo, hi, &mut bits);
                assert_eq!(bits.len(), hi.div_ceil(64), "{pred:?} {lo}..{hi}");
                from_bits.clear();
                bitmap_ones(&bits, &mut from_bits);
                assert_eq!(from_bits, sel, "{pred:?} {lo}..{hi}");
            }
        }
    }

    #[test]
    fn covers_is_conservative_implication() {
        let ge5 = ColPredicate::IntGe { col: 0, min: 5 };
        let ge7 = ColPredicate::IntGe { col: 0, min: 7 };
        let ge5_other_col = ColPredicate::IntGe { col: 2, min: 5 };
        let bt7_9 = ColPredicate::IntBetween {
            col: 0,
            min: 7,
            max: 9,
        };
        let bt5_100 = ColPredicate::IntBetween {
            col: 0,
            min: 5,
            max: 100,
        };
        let bt5_open = ColPredicate::IntBetween {
            col: 0,
            min: 5,
            max: i64::MAX,
        };
        let pa = ColPredicate::StrPrefix {
            col: 1,
            prefix: "A".into(),
        };
        let pab = ColPredicate::StrPrefix {
            col: 1,
            prefix: "AB".into(),
        };
        let pempty = ColPredicate::StrPrefix {
            col: 1,
            prefix: String::new(),
        };
        let all = ColPredicate::And(vec![]);

        assert!(ge5.covers(&ge7));
        assert!(!ge7.covers(&ge5));
        assert!(!ge5.covers(&ge5_other_col));
        assert!(ge5.covers(&bt7_9));
        assert!(!ge7.covers(&bt5_100));
        assert!(bt5_100.covers(&bt7_9));
        assert!(!bt7_9.covers(&bt5_100));
        // A bounded window never covers an open-ended one — unless its
        // upper bound literally is i64::MAX.
        assert!(!bt5_100.covers(&ge7));
        assert!(bt5_open.covers(&ge7));
        assert!(pa.covers(&pab));
        assert!(!pab.covers(&pa));
        assert!(pempty.covers(&pa));
        // The empty conjunction matches all rows: covers everything, is
        // covered by no leaf.
        assert!(all.covers(&ge5));
        assert!(all.covers(&all));
        assert!(!ge5.covers(&all));
        // Conjunction sides recurse.
        assert!(ColPredicate::And(vec![ge5.clone()]).covers(&ge7));
        assert!(ge5.covers(&ColPredicate::And(vec![ge7.clone(), pa.clone()])));
        assert!(!ge5.covers(&ColPredicate::And(vec![pa.clone()])));
        // Cross-variant comparisons make no claim.
        assert!(!pa.covers(&ge5));
        assert!(!ge5.covers(&pa));
    }

    #[test]
    fn union_hull_is_a_hull_of_both_inputs() {
        let preds = bitmap_preds();
        // Row oracle: everything either input matches, the hull matches.
        let rows: Vec<Vec<Value>> = (0..60i64)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    if i % 2 == 0 {
                        Value::str(format!("A{i}"))
                    } else {
                        Value::str(format!("z{i}"))
                    },
                ]
            })
            .collect();
        for p in &preds {
            for q in &preds {
                let hull = p.union_hull(q);
                assert!(hull.covers(p), "{hull:?} must cover {p:?}");
                assert!(hull.covers(q), "{hull:?} must cover {q:?}");
                for row in &rows {
                    if p.matches(row) || q.matches(row) {
                        assert!(hull.matches(row), "{hull:?} missed a row of {p:?} | {q:?}");
                    }
                }
            }
        }
        // Tight shapes, not just the trivial hull.
        let ge5 = ColPredicate::IntGe { col: 0, min: 5 };
        let ge9 = ColPredicate::IntGe { col: 0, min: 9 };
        assert_eq!(ge5.union_hull(&ge9), ge5);
        let bt1_2 = ColPredicate::IntBetween {
            col: 0,
            min: 1,
            max: 2,
        };
        let bt10_20 = ColPredicate::IntBetween {
            col: 0,
            min: 10,
            max: 20,
        };
        // Disjoint windows hull to one spanning window (admitting the gap).
        assert_eq!(
            bt1_2.union_hull(&bt10_20),
            ColPredicate::IntBetween {
                col: 0,
                min: 1,
                max: 20
            }
        );
        // Open-ended absorbs bounded: only the smaller min survives.
        assert_eq!(
            ge9.union_hull(&bt1_2),
            ColPredicate::IntGe { col: 0, min: 1 }
        );
        let pab = ColPredicate::StrPrefix {
            col: 1,
            prefix: "AB".into(),
        };
        let pac = ColPredicate::StrPrefix {
            col: 1,
            prefix: "AC".into(),
        };
        assert_eq!(
            pab.union_hull(&pac),
            ColPredicate::StrPrefix {
                col: 1,
                prefix: "A".into()
            }
        );
        // Unrelated predicates fall back to the trivially-true hull.
        let other_col = ColPredicate::IntGe { col: 2, min: 5 };
        assert_eq!(ge5.union_hull(&other_col), ColPredicate::And(vec![]));
    }

    #[test]
    fn project_columns_readdresses_into_projection() {
        let proj = [2usize, 4, 6];
        let p = ColPredicate::IntGe { col: 4, min: 9 };
        assert_eq!(
            p.project_columns(&proj),
            Some(ColPredicate::IntGe { col: 1, min: 9 })
        );
        let conj = ColPredicate::And(vec![
            ColPredicate::IntGe { col: 4, min: 9 },
            ColPredicate::StrPrefix {
                col: 6,
                prefix: "A".into(),
            },
        ]);
        assert_eq!(
            conj.project_columns(&proj),
            Some(ColPredicate::And(vec![
                ColPredicate::IntGe { col: 1, min: 9 },
                ColPredicate::StrPrefix {
                    col: 2,
                    prefix: "A".into(),
                },
            ]))
        );
        // A column the projection does not carry cannot be re-addressed,
        // even from inside a conjunction.
        assert_eq!(
            ColPredicate::IntGe { col: 3, min: 0 }.project_columns(&proj),
            None
        );
        assert_eq!(
            ColPredicate::And(vec![
                ColPredicate::IntGe { col: 2, min: 0 },
                ColPredicate::IntGe { col: 3, min: 0 },
            ])
            .project_columns(&proj),
            None
        );
        assert_eq!(
            ColPredicate::And(vec![]).project_columns(&proj),
            Some(ColPredicate::And(vec![]))
        );
    }
}
