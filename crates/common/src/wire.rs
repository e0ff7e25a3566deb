//! The one checked wire reader.
//!
//! Once ACs are apart they talk only in bytes: scans, predicates and flows
//! (paper §4), log records and 2PC votes (§2.3). Every decoder of such
//! bytes reads through [`WireRead`] and every standalone frame goes
//! through [`decode_exact`], so the reading policy lives here once
//! (DESIGN.md, "Wire decoding contract"):
//!
//! * **checked reads** — a read past the end of the frame is the reader's
//!   one truncation error, [`TRUNCATED`]; nothing indexes past the end,
//! * **bounded counts** — a count header is checked against the bytes
//!   left *before* anything is allocated for it ([`WireRead::count`]),
//! * **strict bools** — only 0 and 1 are booleans,
//! * **checked UTF-8** — text is validated, never assumed,
//! * **exactly one frame** — a standalone frame holding bytes after its
//!   message is corrupt ([`TRAILING`]).
//!
//! Decoders keep their own labels for the errors only they can see: an
//! unknown tag or flag, a count exceeding the payload, a bad bool byte,
//! bad UTF-8, nesting too deep. Whatever the bytes, a decoder returns a
//! value or a [`DbError::Codec`]; it never panics.
//! [`assert_codec_contract`] checks all of this for one codec.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::{Buf, Bytes, BytesMut};

use crate::error::{DbError, DbResult};

/// Label of the reader's one truncation error.
pub const TRUNCATED: &str = "frame truncated";

/// Label of the error for bytes left over after a standalone frame.
pub const TRAILING: &str = "trailing bytes after frame";

/// Checked big-endian reads over any [`Buf`]: each returns
/// `DbError::Codec(`[`TRUNCATED`]`)` instead of panicking when the frame
/// is too short.
pub trait WireRead: Buf {
    /// Reads one byte.
    #[inline]
    fn read_u8(&mut self) -> DbResult<u8> {
        need(self, 1)?;
        Ok(self.get_u8())
    }

    /// Reads a big-endian u16.
    #[inline]
    fn read_u16(&mut self) -> DbResult<u16> {
        need(self, 2)?;
        Ok(self.get_u16())
    }

    /// Reads a big-endian u32.
    #[inline]
    fn read_u32(&mut self) -> DbResult<u32> {
        need(self, 4)?;
        Ok(self.get_u32())
    }

    /// Reads a big-endian u64.
    #[inline]
    fn read_u64(&mut self) -> DbResult<u64> {
        need(self, 8)?;
        Ok(self.get_u64())
    }

    /// Reads a big-endian i64.
    #[inline]
    fn read_i64(&mut self) -> DbResult<i64> {
        need(self, 8)?;
        Ok(self.get_i64())
    }

    /// Reads a big-endian f64.
    #[inline]
    fn read_f64(&mut self) -> DbResult<f64> {
        need(self, 8)?;
        Ok(self.get_f64())
    }

    /// Reads a strict bool byte: 0 or 1, anything else fails with `what`.
    #[inline]
    fn read_bool(&mut self, what: &'static str) -> DbResult<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DbError::Codec(what)),
        }
    }

    /// Checks a count header `n` against the bytes left, given that every
    /// counted element takes at least `min_elem_wire_size` bytes; fails
    /// with `what` when they cannot all be there. Call it before
    /// allocating for the elements, so a corrupt header costs nothing.
    #[inline]
    fn count(
        &self,
        n: impl Into<u64>,
        min_elem_wire_size: usize,
        what: &'static str,
    ) -> DbResult<usize> {
        debug_assert!(min_elem_wire_size > 0);
        let n = n.into();
        if n > (self.remaining() / min_elem_wire_size) as u64 {
            return Err(DbError::Codec(what));
        }
        Ok(n as usize)
    }

    /// Reads `len` bytes of UTF-8 text (the caller read the length frame);
    /// invalid UTF-8 fails with `what`.
    fn read_str(&mut self, len: usize, what: &'static str) -> DbResult<String> {
        self.read_slice(len, |b| std::str::from_utf8(b).map(str::to_owned))?
            .map_err(|_| DbError::Codec(what))
    }

    /// Bulk read for column payloads: one bounds check, then `f` converts
    /// the next `n` bytes from one slice, and they are consumed. Assumes a
    /// contiguous buffer (`chunk()` is the whole remainder), as every
    /// `Buf` of the `bytes` shim is.
    #[inline]
    fn read_slice<T>(&mut self, n: usize, f: impl FnOnce(&[u8]) -> T) -> DbResult<T> {
        need(self, n)?;
        debug_assert_eq!(
            self.chunk().len(),
            self.remaining(),
            "non-contiguous buffer"
        );
        let out = f(&self.chunk()[..n]);
        self.advance(n);
        Ok(out)
    }
}

impl<B: Buf + ?Sized> WireRead for B {}

/// Fails with [`TRUNCATED`] unless `n` bytes are left in `buf`.
#[inline]
fn need<B: Buf + ?Sized>(buf: &B, n: usize) -> DbResult<()> {
    if buf.remaining() < n {
        Err(DbError::Codec(TRUNCATED))
    } else {
        Ok(())
    }
}

/// Decodes exactly one frame: `decode_from` must consume every byte of
/// `bytes`, or the frame is corrupt ([`TRAILING`]).
pub fn decode_exact<T>(
    bytes: &Bytes,
    decode_from: impl FnOnce(&mut Bytes) -> DbResult<T>,
) -> DbResult<T> {
    let mut buf = bytes.clone();
    let value = decode_from(&mut buf)?;
    if buf.remaining() != 0 {
        return Err(DbError::Codec(TRAILING));
    }
    Ok(value)
}

/// Encodes into a fresh buffer of `capacity` bytes.
pub fn encode(capacity: usize, encode_into: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(capacity);
    encode_into(&mut buf);
    buf.freeze()
}

/// Checks the decoding contract of one codec on every sample:
///
/// * `decode(encode(s)) == s`,
/// * every strict prefix of the frame is a [`DbError::Codec`],
/// * the frame plus one trailing byte is a [`DbError::Codec`],
/// * every single-byte corruption — each of the 255 other values at every
///   position — decodes to `Ok` or a [`DbError::Codec`], never another
///   error and never a panic.
///
/// Enumerates rather than samples, so keep samples small (tens to a few
/// hundred bytes). Panics naming the sample and the corruption on the
/// first violation; a test helper, not a product API.
#[doc(hidden)]
pub fn assert_codec_contract<T: PartialEq + Debug>(
    samples: &[T],
    encode: impl Fn(&T) -> Bytes,
    decode: impl Fn(&Bytes) -> DbResult<T>,
) {
    for sample in samples {
        let enc = encode(sample);
        let frame = enc.chunk();
        assert_eq!(decode(&enc).as_ref(), Ok(sample), "roundtrip");
        // Decodes a corruption of `frame` (described by `how`, formatted
        // only on failure): a value or a codec error, never a panic.
        let corrupt = |bytes: &[u8], how: &dyn Fn() -> String| {
            let got = catch_unwind(AssertUnwindSafe(|| decode(&Bytes::copy_from_slice(bytes))))
                .unwrap_or_else(|_| panic!("decode panicked on {} of {sample:?}", how()));
            if let Err(e) = &got {
                assert!(
                    matches!(e, DbError::Codec(_)),
                    "{} of {sample:?} gave {e:?}, want a codec error",
                    how()
                );
            }
            got.is_ok()
        };
        for cut in 0..frame.len() {
            let how = || format!("the {cut}-byte prefix");
            assert!(
                !corrupt(&frame[..cut], &how),
                "{} of {sample:?} decoded",
                how()
            );
        }
        assert!(
            !corrupt(&[frame, &[0]].concat(), &|| "one trailing byte".into()),
            "{sample:?} decoded with one trailing byte"
        );
        let mut flipped = frame.to_vec();
        for pos in 0..frame.len() {
            for x in 1..=255u8 {
                flipped[pos] = frame[pos] ^ x;
                corrupt(&flipped, &|| format!("byte {pos} ^ {x:#04x}"));
            }
            flipped[pos] = frame[pos];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn reads_are_checked() {
        let mut b = encode(0, |b| {
            b.put_u8(7);
            b.put_u16(300);
            b.put_u32(70_000);
            b.put_u64(1 << 40);
            b.put_i64(-5);
            b.put_f64(1.5);
        });
        assert_eq!(b.read_u8(), Ok(7));
        assert_eq!(b.read_u16(), Ok(300));
        assert_eq!(b.read_u32(), Ok(70_000));
        assert_eq!(b.read_u64(), Ok(1 << 40));
        assert_eq!(b.read_i64(), Ok(-5));
        assert_eq!(b.read_f64(), Ok(1.5));
        let truncated = DbError::Codec(TRUNCATED);
        assert_eq!(b.read_u8(), Err(truncated.clone()));
        let mut short = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(short.read_u32(), Err(truncated.clone()));
        assert_eq!(short.read_u64(), Err(truncated));
        // A failed read consumes nothing.
        assert_eq!(short.read_u16(), Ok(0x0102));
    }

    #[test]
    fn bools_are_strict() {
        let mut b = Bytes::copy_from_slice(&[0, 1, 2]);
        assert_eq!(b.read_bool("bad"), Ok(false));
        assert_eq!(b.read_bool("bad"), Ok(true));
        assert_eq!(b.read_bool("bad"), Err(DbError::Codec("bad")));
        assert_eq!(b.read_bool("bad"), Err(DbError::Codec(TRUNCATED)));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let b = Bytes::copy_from_slice(&[0; 12]);
        assert_eq!(b.count(3u16, 4, "too many"), Ok(3));
        assert_eq!(
            b.count(4u32, 4, "too many"),
            Err(DbError::Codec("too many"))
        );
        assert_eq!(b.count(12u64, 1, "too many"), Ok(12));
        assert_eq!(
            b.count(u64::MAX, 1, "too many"),
            Err(DbError::Codec("too many"))
        );
    }

    #[test]
    fn strings_and_slices_are_checked() {
        let mut b = Bytes::copy_from_slice("héllo".as_bytes());
        assert_eq!(b.read_str(99, "not utf-8"), Err(DbError::Codec(TRUNCATED)));
        // "h" + the first byte of "é" splits a character.
        assert_eq!(b.read_str(2, "not utf-8"), Err(DbError::Codec("not utf-8")));
        let mut b = Bytes::copy_from_slice("héllo".as_bytes());
        assert_eq!(b.read_str(3, "not utf-8"), Ok("hé".to_owned()));
        assert_eq!(b.read_slice(3, <[u8]>::to_vec), Ok(b"llo".to_vec()));
        assert_eq!(b.read_slice(1, <[u8]>::len), Err(DbError::Codec(TRUNCATED)));
        assert_eq!(b.read_slice(0, <[u8]>::len), Ok(0));
    }

    #[test]
    fn decode_exact_rejects_trailing_bytes() {
        let two = Bytes::copy_from_slice(&[1, 2]);
        assert_eq!(decode_exact(&two, |b| b.read_u16()), Ok(0x0102));
        assert_eq!(
            decode_exact(&two, |b| b.read_u8()),
            Err(DbError::Codec(TRAILING))
        );
        assert_eq!(
            decode_exact(&two, |b| b.read_u32()),
            Err(DbError::Codec(TRUNCATED))
        );
    }

    #[test]
    fn contract_holds_for_a_length_framed_string() {
        let encode = |s: &String| {
            encode(0, |b| {
                b.put_u16(s.len() as u16);
                b.put_slice(s.as_bytes());
            })
        };
        let decode = |bytes: &Bytes| {
            decode_exact(bytes, |b| {
                let len = b.read_u16()?;
                b.read_str(len.into(), "not utf-8")
            })
        };
        assert_codec_contract(&["".to_owned(), "héllo".to_owned()], encode, decode);
    }

    #[test]
    #[should_panic(expected = "one trailing byte")]
    fn contract_catches_a_decoder_that_ignores_trailing_bytes() {
        let sloppy = |bytes: &Bytes| bytes.clone().read_u16();
        assert_codec_contract(&[7u16], |v| encode(0, |b| b.put_u16(*v)), sloppy);
    }

    #[test]
    #[should_panic(expected = "decode panicked")]
    fn contract_catches_a_decoder_that_panics() {
        let unchecked = |bytes: &Bytes| {
            decode_exact(bytes, |b| {
                let n = b.read_u8()?;
                // Trusts the count header: indexes past the end.
                let last = b.chunk()[usize::from(n).saturating_sub(1)];
                b.advance(usize::from(n));
                Ok((n, last))
            })
        };
        let encode = |&(n, last): &(u8, u8)| encode(0, |b| b.put_slice(&[n, last]));
        assert_codec_contract(&[(1, 9)], encode, unchecked);
    }
}
