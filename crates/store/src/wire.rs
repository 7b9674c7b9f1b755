//! The one binary codec behind every frame and file in the workspace:
//! driver protocol frames, `SinkClaims` payloads, driver checkpoints, graph
//! segments and MapReduce spill runs all read and write through it.
//!
//! Every format is fixed-width little-endian integers plus `u32` length
//! prefixes. The module holds four pieces:
//!
//! * [`Reader`] — a bounds-checked cursor over one byte image. Truncation,
//!   counts the remaining bytes cannot hold, and trailing bytes are all
//!   [`WireError`]s, never panics, and a count is checked *before* anything
//!   is allocated for it.
//! * [`Writer`] — little-endian appends to a `Vec<u8>` plus a checked
//!   length prefix: a length that does not fit its limit (`u32::MAX` unless
//!   the caller lowers it) is an error instead of a silent wrap.
//! * Whole-image framing — [`Format`] writes and checks the magic and
//!   version a file starts with, and [`seal`] / [`open_sealed`] append and
//!   verify the 8-byte [`Checksum64`] footer.
//! * Streaming framing — [`HashWriter`] folds every byte it writes into a
//!   [`Checksum64`] and ends the stream with the footer, for files too large
//!   to stage in memory (segments, spill runs).

use crate::checksum::{checksum64, Checksum64};
use std::fmt;
use std::io::Write;

/// Byte length of the [`Checksum64`] footer that ends every sealed image.
pub const FOOTER_LEN: usize = 8;

/// The largest length a `u32` prefix carries.
pub const MAX_LEN: usize = u32::MAX as usize;

/// A structural defect found while reading, or a length that does not fit
/// its prefix while writing. Each format maps it into its own error type.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the fields are named for what they hold
pub enum WireError {
    /// A field needs more bytes than remain.
    Truncated { need: usize, left: usize },
    /// A count claims more elements than the remaining bytes can hold.
    Overrun { count: usize, left: usize },
    /// Bytes remain after the last field.
    Trailing(usize),
    /// A boolean byte is neither 0 nor 1.
    BadBool(u8),
    /// A length exceeds what its prefix may carry.
    TooLong { len: usize, limit: usize },
    /// The image does not start with the format's magic.
    BadMagic { format: &'static str },
    /// The image carries another version of the format.
    Version { format: &'static str, found: u16, expected: u16 },
    /// The footer does not match the checksum of the bytes before it.
    Checksum { stored: u64, computed: u64 },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, left } => {
                write!(f, "truncated: a field needs {need} bytes, {left} remain")
            }
            WireError::Overrun { count, left } => {
                write!(f, "count {count} overruns {left} remaining bytes")
            }
            WireError::Trailing(n) => write!(f, "{n} trailing bytes"),
            WireError::BadBool(b) => write!(f, "flag byte {b:#04x} is not 0 or 1"),
            WireError::TooLong { len, limit } => {
                write!(f, "length {len} exceeds the {limit} a length prefix may carry")
            }
            WireError::BadMagic { format } => write!(f, "bad {format} magic"),
            WireError::Version { format, found, expected } => {
                write!(f, "unsupported {format} version {found} (expected {expected})")
            }
            WireError::Checksum { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian cursor over one byte image.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated { need: n, left: self.remaining() });
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// One boolean byte: 0 or 1, anything else is an error.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// One little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// One little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// One little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` count of elements that take at least `width` bytes each,
    /// rejected when the remaining bytes cannot hold that many — so a
    /// corrupt count never turns into a huge allocation.
    #[inline]
    pub fn count(&mut self, width: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(width) > self.remaining() {
            return Err(WireError::Overrun { count, left: self.remaining() });
        }
        Ok(count)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// `n` little-endian `u32`s behind one bounds check (the spill path
    /// decodes narrow packed rows this way).
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// `n` little-endian `u64`s behind one bounds check (the spill path
    /// decodes wide packed rows this way).
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        let raw = self.take(n.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// A count-prefixed list of `(u32, u32)` pairs.
    pub fn pairs(&mut self) -> Result<Vec<(u32, u32)>, WireError> {
        let n = self.count(8)?;
        (0..n).map(|_| Ok((self.u32()?, self.u32()?))).collect()
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Little-endian writer appending to a `Vec<u8>`, with checked length
/// prefixes.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    max_len: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out` whose length prefixes carry up to
    /// [`MAX_LEN`].
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer::with_max_len(out, MAX_LEN)
    }

    /// A writer whose length prefixes reject anything above `max_len`
    /// (clamped to [`MAX_LEN`]).
    pub fn with_max_len(out: &'a mut Vec<u8>, max_len: usize) -> Self {
        Writer { out, max_len: max_len.min(MAX_LEN) }
    }

    /// Appends raw bytes.
    #[inline]
    fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends little-endian `u32`s (the bulk counterpart of
    /// [`Reader::u32s`]).
    pub fn u32s(&mut self, values: &[u32]) {
        let start = self.out.len();
        self.out.resize(start + 4 * values.len(), 0);
        for (dst, v) in self.out[start..].chunks_exact_mut(4).zip(values) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends little-endian `u64`s (the bulk counterpart of
    /// [`Reader::u64s`]).
    pub fn u64s(&mut self, values: &[u64]) {
        // Fill a pre-sized tail in place: one resize, then a fixed-width
        // store per value, not one length-checked append each.
        let start = self.out.len();
        self.out.resize(start + 8 * values.len(), 0);
        for (dst, v) in self.out[start..].chunks_exact_mut(8).zip(values) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends `len` as a `u32` length prefix, or fails with
    /// [`WireError::TooLong`] if it exceeds the writer's limit.
    #[inline]
    pub fn len_prefix(&mut self, len: usize) -> Result<(), WireError> {
        if len > self.max_len {
            return Err(WireError::TooLong { len, limit: self.max_len });
        }
        self.u32(len as u32);
        Ok(())
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.len_prefix(bytes.len())?;
        self.raw(bytes);
        Ok(())
    }

    /// Appends a count-prefixed list of `(u32, u32)` pairs.
    pub fn pairs(&mut self, pairs: &[(u32, u32)]) -> Result<(), WireError> {
        self.len_prefix(pairs.len())?;
        for &(a, b) in pairs {
            self.u32(a);
            self.u32(b);
        }
        Ok(())
    }
}

/// A file format's identity: the magic its images start with, the one
/// version this build reads and writes, and a name for error messages.
#[derive(Clone, Copy, Debug)]
pub struct Format {
    /// Leading magic bytes.
    pub magic: [u8; 4],
    /// The format version, written right after the magic.
    pub version: u16,
    /// Human-readable name ("segment", "checkpoint", ...).
    pub name: &'static str,
}

impl Format {
    /// Writes the magic and version.
    pub fn put_header(&self, w: &mut Writer<'_>) {
        w.raw(&self.magic);
        w.u16(self.version);
    }

    /// Reads and checks the magic and version.
    pub fn check_header(&self, r: &mut Reader<'_>) -> Result<(), WireError> {
        if r.take(4)? != self.magic {
            return Err(WireError::BadMagic { format: self.name });
        }
        let found = r.u16()?;
        if found != self.version {
            return Err(WireError::Version { format: self.name, found, expected: self.version });
        }
        Ok(())
    }
}

/// Appends the [`Checksum64`] of everything in `out` as its footer.
pub fn seal(out: &mut Vec<u8>) {
    let sum = checksum64(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Compares a sealed image's footer against `computed`, the checksum of
/// every byte before it (however the caller folded it). `image` must be at
/// least [`FOOTER_LEN`] bytes long.
pub fn verify_footer(image: &[u8], computed: u64) -> Result<(), WireError> {
    let footer = &image[image.len() - FOOTER_LEN..];
    let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
    if stored != computed {
        return Err(WireError::Checksum { stored, computed });
    }
    Ok(())
}

/// Verifies a sealed image's footer and returns the body before it.
pub fn open_sealed(image: &[u8]) -> Result<&[u8], WireError> {
    let body_len = image
        .len()
        .checked_sub(FOOTER_LEN)
        .ok_or(WireError::Truncated { need: FOOTER_LEN, left: image.len() })?;
    verify_footer(image, checksum64(&image[..body_len]))?;
    Ok(&image[..body_len])
}

/// [`Write`] adapter folding every byte that passes through it into a
/// [`Checksum64`], so a streaming writer can end the file with its footer
/// without buffering the file.
pub struct HashWriter<W: Write> {
    inner: W,
    hash: Checksum64,
    written: u64,
}

impl<W: Write> HashWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        HashWriter { inner, hash: Checksum64::new(), written: 0 }
    }

    /// Writes the footer, flushes, and returns the inner writer and the
    /// total bytes written, footer included.
    pub fn finish(self) -> std::io::Result<(W, u64)> {
        let HashWriter { mut inner, hash, written } = self;
        inner.write_all(&hash.finish().to_le_bytes())?;
        inner.flush()?;
        Ok((inner, written + FOOTER_LEN as u64))
    }
}

impl<W: Write> Write for HashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format { magic: *b"TEST", version: 3, name: "test" };

    #[test]
    fn every_field_roundtrips_through_a_sealed_image() {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        TEST.put_header(&mut w);
        w.u8(7);
        w.u8(1);
        w.bytes(b"abc").unwrap();
        w.pairs(&[(1, 2), (3, 4)]).unwrap();
        w.len_prefix(2).unwrap();
        w.u64s(&[5, u64::MAX]);
        w.u32s(&[6, u32::MAX]);
        let mut hw = HashWriter::new(Vec::new());
        hw.write_all(&out).unwrap();
        let (streamed, written) = hw.finish().unwrap();
        seal(&mut out);
        assert_eq!((streamed.as_slice(), written), (out.as_slice(), out.len() as u64));

        let mut r = Reader::new(open_sealed(&out).unwrap());
        TEST.check_header(&mut r).unwrap();
        assert_eq!((r.u8(), r.bool(), r.bytes()), (Ok(7), Ok(true), Ok(&b"abc"[..])));
        assert_eq!(r.pairs().unwrap(), [(1, 2), (3, 4)]);
        let n = r.count(8).unwrap();
        assert_eq!(r.u64s(n).unwrap(), [5, u64::MAX]);
        assert_eq!(r.u32s(2).unwrap(), [6, u32::MAX]);
        r.finish().unwrap();
    }

    #[test]
    fn defects_are_errors_never_panics() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(WireError::Truncated { need: 4, left: 3 }));
        let inflated = [0xff, 0xff, 0xff, 0xff, 0];
        assert_eq!(
            Reader::new(&inflated).count(1),
            Err(WireError::Overrun { count: MAX_LEN, left: 1 })
        );
        assert!(Reader::new(&[0; 8]).u64s(usize::MAX).is_err());
        assert!(Reader::new(&[0; 8]).u32s(usize::MAX).is_err());
        assert_eq!(Reader::new(&[2]).bool(), Err(WireError::BadBool(2)));
        assert_eq!(Reader::new(&[1]).finish(), Err(WireError::Trailing(1)));
        let mut out = Vec::new();
        let mut w = Writer::with_max_len(&mut out, 2);
        assert_eq!(w.bytes(b"abc"), Err(WireError::TooLong { len: 3, limit: 2 }));
        assert_eq!(w.pairs(&[(0, 0); 3]), Err(WireError::TooLong { len: 3, limit: 2 }));
        assert!(out.is_empty(), "a rejected prefix writes nothing");

        Format { version: 1, ..TEST }.put_header(&mut Writer::new(&mut out));
        let err = TEST.check_header(&mut Reader::new(&out)).unwrap_err();
        assert!(err.to_string().contains("unsupported test version 1"), "{err}");
        out[0] ^= 1;
        assert_eq!(
            TEST.check_header(&mut Reader::new(&out)),
            Err(WireError::BadMagic { format: "test" })
        );
        seal(&mut out);
        out[1] ^= 1;
        assert!(open_sealed(&out).unwrap_err().to_string().contains("checksum"));
        assert!(open_sealed(&out[..FOOTER_LEN - 1]).is_err());
    }
}
