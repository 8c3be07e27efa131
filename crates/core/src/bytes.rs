//! The byte codec shared by the workspace's two binary formats: the
//! `PWCX` disk-tier entries (this crate's context codec) and the `PWCQ`
//! wire frames of the analysis service.
//!
//! Both formats put one 24-byte header in front of the payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic (format-specific, e.g. "PWCX" / "PWCQ")
//! 4       4     format version (u32)
//! 8       8     payload length in bytes (u64)
//! 16      8     FNV-1a checksum of the payload (u64)
//! 24      …     payload
//! ```
//!
//! A [`Format`] names one such layout (magic, accepted version range,
//! length cap) and seals and opens it. [`Enc`] writes little-endian
//! fields; [`Dec`] reads them back **bounded by construction**: every
//! read is checked against the remaining bytes, and every sequence
//! length goes through [`Dec::seq_len`], which refuses a count the
//! remaining bytes cannot hold before the caller allocates for it.
//! Failures surface as a [`DecodeError`], which each format converts
//! into its own error type.

use std::fmt;

use crate::codec::fnv1a_checksum;

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 24;

/// Why bytes could not be decoded. Format-level error types convert
/// from it (`From`), so decoders use `?` on [`Dec`] reads directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the declared (or minimal) structure needs.
    Truncated,
    /// The bytes do not start with the format's magic.
    BadMagic,
    /// A format version outside the accepted range.
    UnsupportedVersion(u32),
    /// The length prefix exceeds the format's cap.
    Oversized(u64),
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Structurally invalid contents (bad tag, flag or string).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Oversized(len) => write!(f, "length prefix {len} exceeds the cap"),
            DecodeError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One header layout: the magic, the accepted version range (sealing
/// always writes `version`), and the largest payload a header may
/// declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The four magic bytes.
    pub magic: [u8; 4],
    /// The version this build writes.
    pub version: u32,
    /// The oldest version this build still reads.
    pub min_version: u32,
    /// Upper bound on a declared payload length.
    pub max_payload: u64,
}

impl Format {
    /// The payload wrapped in its header (at [`version`](Self::version)).
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Validates a raw header and returns `(payload_len, checksum)`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on bad magic, a version outside the accepted
    /// range, or a length prefix above the cap — all detected before
    /// the caller allocates for the payload.
    pub fn parse_header(&self, header: &[u8; HEADER_LEN]) -> Result<(u64, u64), DecodeError> {
        let field = |at: usize| {
            u64::from_le_bytes(
                header[at..at + 8]
                    .try_into()
                    .expect("8 bytes of the header"),
            )
        };
        if header[..4] != self.magic {
            return Err(DecodeError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes of the header"));
        if !(self.min_version..=self.version).contains(&version) {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let payload_len = field(8);
        if payload_len > self.max_payload {
            return Err(DecodeError::Oversized(payload_len));
        }
        Ok((payload_len, field(16)))
    }

    /// The validated payload of one complete sealed buffer.
    ///
    /// # Errors
    ///
    /// Any header fault, a length that disagrees with the bytes
    /// present, or a checksum mismatch.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], DecodeError> {
        let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
            return Err(DecodeError::Truncated);
        };
        let (payload_len, sum) = self.parse_header(header)?;
        if payload_len != payload.len() as u64 {
            return Err(DecodeError::Truncated);
        }
        verify(payload, sum)?;
        Ok(payload)
    }
}

/// Checks a payload against the checksum its header declared.
///
/// # Errors
///
/// [`DecodeError::ChecksumMismatch`] when the bytes were corrupted.
pub fn verify(payload: &[u8], declared: u64) -> Result<(), DecodeError> {
    if fnv1a_checksum(payload) != declared {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(())
}

/// Little-endian field writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` by its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u64` length prefix, then the bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// A string as length-prefixed UTF-8.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A presence byte (0/1), then the value when present.
    pub fn opt<T>(&mut self, value: Option<T>, mut write: impl FnMut(&mut Self, T)) {
        match value {
            Some(v) => {
                self.u8(1);
                write(self, v);
            }
            None => self.u8(0),
        }
    }
}

/// Bounded little-endian field reader over one payload. Every read
/// fails with [`DecodeError::Truncated`] when too few bytes remain.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a sequence length and guards it against allocation bombs:
    /// each element occupies at least `min_elem_bytes`, so a count the
    /// remaining bytes cannot hold is refused as truncation. A caller
    /// that then allocates `n` elements of `T` allocates at most
    /// `size_of::<T>() / min_elem_bytes` bytes per input byte.
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.seq_len(1)?;
        self.take(len)
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| DecodeError::Malformed("non-UTF-8 string"))
    }

    /// A presence byte written by [`Enc::opt`].
    #[inline]
    pub fn present(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("presence flag")),
        }
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMAT: Format = Format {
        magic: *b"TEST",
        version: 3,
        min_version: 2,
        max_payload: 64,
    };

    #[test]
    fn fields_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u32(0xdead_beef);
        enc.u64(u64::MAX - 1);
        enc.f64(-0.5);
        enc.str("héllo");
        enc.opt(Some(9u32), Enc::u32);
        enc.opt(None::<u32>, Enc::u32);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8(), Ok(7));
        assert_eq!(dec.u32(), Ok(0xdead_beef));
        assert_eq!(dec.u64(), Ok(u64::MAX - 1));
        assert_eq!(dec.f64(), Ok(-0.5));
        assert_eq!(dec.str().as_deref(), Ok("héllo"));
        assert_eq!(dec.present(), Ok(true));
        assert_eq!(dec.u32(), Ok(9));
        assert_eq!(dec.present(), Ok(false));
        assert_eq!(dec.finish(), Ok(()));
        assert_eq!(dec.u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn sequence_lengths_are_bounded_by_the_remaining_bytes() {
        let mut enc = Enc::new();
        enc.u64(3);
        enc.u64(0);
        enc.u64(0);
        enc.u64(0);
        let bytes = enc.into_bytes();
        assert_eq!(Dec::new(&bytes).seq_len(8), Ok(3));
        assert_eq!(Dec::new(&bytes).seq_len(9), Err(DecodeError::Truncated));
        let mut bomb = Enc::new();
        bomb.u64(1 << 60);
        assert_eq!(
            Dec::new(&bomb.into_bytes()).seq_len(1),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn sealed_buffers_open_and_every_header_fault_is_named() {
        let sealed = FORMAT.seal(b"payload");
        assert_eq!(FORMAT.open(&sealed), Ok(&b"payload"[..]));

        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(FORMAT.open(&bad), Err(DecodeError::BadMagic));
        for (version, ok) in [(1u32, false), (2, true), (3, true), (4, false)] {
            let mut other = sealed.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            let expected = if ok {
                Ok(&b"payload"[..])
            } else {
                Err(DecodeError::UnsupportedVersion(version))
            };
            assert_eq!(FORMAT.open(&other), expected);
        }
        let mut oversized = sealed.clone();
        oversized[8..16].copy_from_slice(&65u64.to_le_bytes());
        assert_eq!(FORMAT.open(&oversized), Err(DecodeError::Oversized(65)));
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(FORMAT.open(&flipped), Err(DecodeError::ChecksumMismatch));
        assert_eq!(
            FORMAT.open(&sealed[..sealed.len() - 1]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(FORMAT.open(&sealed[..10]), Err(DecodeError::Truncated));
    }
}
