//! Row representation and the compact binary wire encoding used by data
//! streams.
//!
//! Data streams in an architecture-less DBMS ship *all* state between ACs,
//! so tuples need a cheap clone (Arc'd strings, see [`crate::value`]) and a
//! compact self-describing binary encoding for links that model network
//! transfer. The encoding is hand-rolled on `bytes` — we deliberately do not
//! pull in serde (see DESIGN.md §4).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{DbError, DbResult};
use crate::value::Value;
use crate::wire::{self, WireRead};

/// Wire tags for the tuple encoding.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// A row of values.
///
/// `Tuple` is the unit flowing through data streams: scans emit tuples,
/// joins consume and produce them, and update events carry the new column
/// values as tuples.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// An empty tuple.
    pub fn empty() -> Self {
        Self { values: Vec::new() }
    }

    /// The values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access (used by in-place update operators).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at `idx`.
    ///
    /// # Panics
    /// Panics if out of range; operators resolve column indices against a
    /// checked schema before touching tuples.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Replaces the value at `idx`, returning the previous one.
    #[inline]
    pub fn set(&mut self, idx: usize, v: Value) -> Value {
        std::mem::replace(&mut self.values[idx], v)
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Concatenates two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Projects the tuple onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Approximate wire size in bytes; used by simulated links to model
    /// transfer time (latency + size / bandwidth).
    pub fn wire_size(&self) -> usize {
        2 + self.values.iter().map(Value::wire_size).sum::<usize>()
    }

    /// Encodes the tuple into `buf` in the self-describing wire format.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(self.values.len() <= u16::MAX as usize);
        buf.put_u16(self.values.len() as u16);
        for v in &self.values {
            match v {
                Value::Null => buf.put_u8(TAG_NULL),
                Value::Int(i) => {
                    buf.put_u8(TAG_INT);
                    buf.put_i64(*i);
                }
                Value::Float(f) => {
                    buf.put_u8(TAG_FLOAT);
                    buf.put_f64(*f);
                }
                Value::Str(s) => {
                    buf.put_u8(TAG_STR);
                    buf.put_u32(s.len() as u32);
                    buf.put_slice(s.as_bytes());
                }
            }
        }
    }

    /// Encodes the tuple into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        wire::encode(self.wire_size(), |buf| self.encode_into(buf))
    }

    /// Decodes one tuple from `buf`, advancing it past the consumed bytes.
    pub fn decode_from(buf: &mut impl Buf) -> DbResult<Tuple> {
        let arity = buf.read_u16()?;
        // Every value is at least its tag byte.
        let arity = buf.count(arity, 1, "tuple arity exceeds payload")?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(match buf.read_u8()? {
                TAG_NULL => Value::Null,
                TAG_INT => Value::Int(buf.read_i64()?),
                TAG_FLOAT => Value::Float(buf.read_f64()?),
                TAG_STR => {
                    let len = buf.read_u32()? as usize;
                    Value::from(buf.read_str(len, "str not utf-8")?)
                }
                _ => return Err(DbError::Codec("unknown value tag")),
            });
        }
        Ok(Tuple::new(values))
    }

    /// Decodes a standalone frame holding exactly one tuple.
    pub fn decode(bytes: &Bytes) -> DbResult<Tuple> {
        wire::decode_exact(bytes, Self::decode_from)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new(vec![
            Value::Int(-5),
            Value::Float(3.25),
            Value::str("hello"),
            Value::Null,
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let samples = [sample(), Tuple::new(vec![Value::str("ß漢")])];
        wire::assert_codec_contract(&samples, Tuple::encode, Tuple::decode);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        wire::assert_codec_contract(&[Tuple::empty()], Tuple::encode, Tuple::decode);
    }

    #[test]
    fn decode_multiple_from_one_buffer() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::str("x"), Value::Null]);
        let mut buf = BytesMut::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(Tuple::decode_from(&mut bytes).unwrap(), a);
        assert_eq!(Tuple::decode_from(&mut bytes).unwrap(), b);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn decode_rejects_truncation() {
        // Cut inside the int value: the reader's truncation error.
        assert_eq!(
            Tuple::decode(&sample().encode().slice(0..8)),
            Err(DbError::Codec(wire::TRUNCATED))
        );
        // A header claiming 65 535 values with none behind it fails on the
        // count, before anything is allocated for them.
        assert_eq!(
            Tuple::decode(&Bytes::copy_from_slice(&[0xFF, 0xFF])),
            Err(DbError::Codec("tuple arity exceeds payload"))
        );
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut buf = BytesMut::new();
        buf.put_u16(1);
        buf.put_u8(99);
        assert_eq!(
            Tuple::decode(&buf.freeze()),
            Err(DbError::Codec("unknown value tag"))
        );
    }

    #[test]
    fn concat_and_project() {
        let a = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Tuple::new(vec![Value::str("x")]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(
            c.project(&[2, 0]).values(),
            &[Value::str("x"), Value::Int(1)]
        );
    }

    #[test]
    fn wire_size_upper_bounds_encoding() {
        let t = sample();
        assert!(t.encode().len() <= t.wire_size() + 8);
    }

    #[test]
    fn set_returns_previous() {
        let mut t = Tuple::new(vec![Value::Int(1)]);
        let old = t.set(0, Value::Int(2));
        assert_eq!(old, Value::Int(1));
        assert_eq!(t.get(0), &Value::Int(2));
    }
}
