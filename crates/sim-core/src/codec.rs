//! The one binary codec behind every persisted format: snapshots,
//! journal headers and records, sweep cell records and checkpoint
//! chunks.
//!
//! Everything is little-endian and fixed-width: `usize` travels as a
//! `u64`, `bool` as one `0`/`1` byte, `f64` as its exact IEEE bit
//! pattern (NaN payloads round-trip unchanged), and a string as a `u32`
//! byte length followed by UTF-8. Two combinators cover the repeated
//! shapes: [`Writer::opt`] (a `0`/`1` tag, then the value) and
//! [`Writer::seq`] (a `u64` count, then the elements).
//!
//! Decoding is total. Every read is bounds-checked and fails with
//! [`DecodeError::Truncated`] when the input ends inside the value
//! (consuming nothing); a count is checked against the bytes actually
//! left before anything is allocated ([`Reader::len`]); tags, `bool`s
//! and UTF-8 are validated. Hostile or torn bytes never panic.
//!
//! [`checksum`] is the one integrity check over persisted bytes.
//!
//! # Examples
//!
//! ```
//! use grococa_sim::codec::{DecodeError, Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.u32(7);
//! w.opt(Some(2.5f64), Writer::f64);
//! w.seq([1u16, 2, 3], Writer::u16);
//! w.str("done");
//! let bytes = w.into_vec();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.u32(), Ok(7));
//! assert_eq!(r.opt(Reader::f64), Ok(Some(2.5)));
//! assert_eq!(r.seq(2, Reader::u16), Ok(vec![1, 2, 3]));
//! assert_eq!(r.str(), Ok("done"));
//! assert_eq!(r.done(), Ok(()));
//! assert_eq!(r.u8(), Err(DecodeError::Truncated));
//! ```

use std::fmt;

use crate::SimTime;

/// A SplitMix64-derived checksum of `bytes`.
///
/// Each 8-byte word (zero-padded at the tail) is folded through the
/// SplitMix64 finaliser, and the total length is mixed in last so padded
/// tails cannot collide with genuine zero bytes. Not cryptographic — it
/// guards against torn writes and bit rot, not adversaries.
///
/// # Examples
///
/// ```
/// use grococa_sim::codec::checksum;
///
/// assert_eq!(checksum(b"abc"), checksum(b"abc"));
/// assert_ne!(checksum(b"abc"), checksum(b"abd"));
/// assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
/// ```
pub fn checksum(bytes: &[u8]) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = 0x6A09_E667_F3BC_C909u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = mix(h ^ u64::from_le_bytes(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        if let Some(head) = w.get_mut(..tail.len()) {
            head.copy_from_slice(tail);
        }
        h = mix(h ^ u64::from_le_bytes(w));
    }
    mix(h ^ (bytes.len() as u64))
}

/// Why bytes could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a value.
    Truncated,
    /// A count does not fit in memory (`usize` overflow, or its element
    /// bytes overflow `usize`).
    CountOverflow,
    /// A count promises more elements than the bytes left could hold.
    CountExceedsInput,
    /// Bytes remain after the last expected value.
    TrailingBytes,
    /// A `bool` byte other than `0` or `1`.
    BadBool,
    /// An option tag other than `0` or `1`.
    BadTag,
    /// A string that is not UTF-8.
    BadUtf8,
}

impl DecodeError {
    /// A short description, usable where a `&'static str` is wanted.
    pub fn as_str(self) -> &'static str {
        match self {
            DecodeError::Truncated => "truncated input",
            DecodeError::CountOverflow => "oversized count",
            DecodeError::CountExceedsInput => "count exceeds the remaining bytes",
            DecodeError::TrailingBytes => "trailing bytes",
            DecodeError::BadBool => "bad bool",
            DecodeError::BadTag => "bad option tag",
            DecodeError::BadUtf8 => "string is not UTF-8",
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for DecodeError {}

/// Appends values to a growing byte buffer.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The finished buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Overwrites the `u64` at byte offset `at` — for a field, such as a
    /// checksum, known only once the bytes after it are written.
    ///
    /// # Panics
    ///
    /// Panics if the eight bytes at `at` were not written yet.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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

    /// A `usize`, as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A `bool`, as one `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// An `f64`'s exact bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A [`SimTime`], as its microseconds.
    #[inline]
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    /// Raw bytes, with no length prefix.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A string: its byte length as a `u32`, then its UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// An option: tag `0` for `None`; tag `1`, then `put` for `Some`.
    #[inline]
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
        }
    }

    /// A sequence: the element count as a `u64`, then `put` per element.
    #[inline]
    pub fn seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Writer, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.usize(items.len());
        for item in items {
            put(self, item);
        }
    }
}

/// Reads values back from a byte slice, front to back.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only when every byte has been consumed.
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    /// The next `n` raw bytes. Consumes nothing on failure.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| DecodeError::Truncated)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
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

    /// A `usize` written as a `u64`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::CountOverflow)
    }

    /// A count of elements that each take at least `elem_floor` bytes,
    /// checked against the bytes left so a corrupt count can never drive
    /// a giant allocation.
    #[inline]
    pub fn len(&mut self, elem_floor: usize) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        let need = n
            .checked_mul(elem_floor.max(1))
            .ok_or(DecodeError::CountOverflow)?;
        if need > self.remaining() {
            return Err(DecodeError::CountExceedsInput);
        }
        Ok(n)
    }

    /// A `bool` byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadBool),
        }
    }

    /// An `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// A [`SimTime`] from its microseconds.
    #[inline]
    pub fn time(&mut self) -> Result<SimTime, DecodeError> {
        self.u64().map(SimTime::from_micros)
    }

    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// An option written by [`Writer::opt`], reading the value with `get`.
    #[inline]
    pub fn opt<T, E: From<DecodeError>>(
        &mut self,
        get: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            _ => Err(DecodeError::BadTag.into()),
        }
    }

    /// A sequence written by [`Writer::seq`] whose elements each take at
    /// least `elem_floor` bytes (see [`Reader::len`]), reading each
    /// element with `get`.
    #[inline]
    pub fn seq<T, E: From<DecodeError>>(
        &mut self,
        elem_floor: usize,
        mut get: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.len(elem_floor)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of everything: every primitive and both combinators.
    fn mixed() -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12_345);
        w.bool(true);
        w.bool(false);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7FF8_0000_0000_0BAD));
        w.time(SimTime::from_micros(77));
        w.bytes(b"raw");
        w.str("héllo");
        w.opt(None::<u32>, Writer::u32);
        w.opt(Some(9u32), Writer::u32);
        w.seq(Vec::<u64>::new(), Writer::u64);
        w.seq(["a", "bc"], Writer::str);
        w.into_vec()
    }

    fn read_mixed(r: &mut Reader<'_>) -> Result<(), DecodeError> {
        assert_eq!(r.u8()?, 0xAB);
        assert_eq!(r.u16()?, 0xBEEF);
        assert_eq!(r.u32()?, 0xDEAD_BEEF);
        assert_eq!(r.u64()?, u64::MAX - 1);
        assert_eq!(r.usize()?, 12_345);
        assert!(r.bool()?);
        assert!(!r.bool()?);
        assert_eq!(r.f64()?.to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64()?.to_bits(), 0x7FF8_0000_0000_0BAD);
        assert_eq!(r.time()?, SimTime::from_micros(77));
        assert_eq!(r.bytes(3)?, b"raw");
        assert_eq!(r.str()?, "héllo");
        assert_eq!(r.opt(Reader::u32)?, None);
        assert_eq!(r.opt(Reader::u32)?, Some(9));
        assert_eq!(r.seq(8, Reader::u64)?, Vec::<u64>::new());
        assert_eq!(r.seq(4, Reader::str)?, ["a", "bc"]);
        r.done()
    }

    #[test]
    fn every_primitive_and_combinator_round_trips() {
        let bytes = mixed();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_mixed(&mut r), Ok(()));
        assert_eq!(r.pos(), bytes.len());
    }

    #[test]
    fn layout_is_little_endian_and_fixed_width() {
        let mut w = Writer::new();
        w.u16(0x0102);
        w.usize(3);
        w.str("ab");
        w.opt(Some(true), Writer::bool);
        w.seq([5u32], Writer::u32);
        assert_eq!(
            w.as_slice(),
            [
                2, 1, // u16
                3, 0, 0, 0, 0, 0, 0, 0, // usize as u64
                2, 0, 0, 0, b'a', b'b', // str: u32 length + bytes
                1, 1, // opt tag + bool
                1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, // seq: u64 count + u32
            ]
        );
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let bytes = mixed();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let err = read_mixed(&mut r).expect_err("a truncated buffer must not decode");
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::CountExceedsInput),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn len_is_bounded_by_the_remaining_bytes() {
        let mut w = Writer::new();
        w.usize(3);
        w.bytes(&[0; 12]);
        let bytes = w.into_vec();
        assert_eq!(Reader::new(&bytes).len(4), Ok(3));
        assert_eq!(
            Reader::new(&bytes).len(5),
            Err(DecodeError::CountExceedsInput)
        );
        assert_eq!(
            Reader::new(&bytes).seq(5, Reader::u8),
            Err(DecodeError::CountExceedsInput)
        );
        // A zero floor still counts each element as one byte.
        let mut w = Writer::new();
        w.usize(1);
        assert_eq!(
            Reader::new(w.as_slice()).len(0),
            Err(DecodeError::CountExceedsInput)
        );
    }

    #[test]
    fn len_rejects_a_count_whose_byte_size_overflows() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2 + 1);
        assert_eq!(
            Reader::new(w.as_slice()).len(2),
            Err(DecodeError::CountOverflow)
        );
    }

    #[test]
    fn done_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.done(), Err(DecodeError::TrailingBytes));
        assert_eq!(r.u8(), Ok(2));
        assert_eq!(r.done(), Ok(()));
    }

    #[test]
    fn bad_tags_and_bools_are_rejected() {
        for byte in 2..=u8::MAX {
            assert_eq!(Reader::new(&[byte]).bool(), Err(DecodeError::BadBool));
            assert_eq!(
                Reader::new(&[byte, 0, 0, 0, 0]).opt(Reader::u32),
                Err(DecodeError::BadTag)
            );
        }
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.u32(1);
        w.u8(0xFF);
        assert_eq!(Reader::new(w.as_slice()).str(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn failed_reads_consume_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.pos(), 0);
        assert_eq!(r.bytes(3), Ok(&[1, 2, 3][..]));
    }

    #[test]
    fn patch_overwrites_in_place() {
        let mut w = Writer::new();
        w.u32(1);
        w.u64(0);
        w.u8(9);
        w.patch_u64(4, 0x0807_0605_0403_0201);
        assert_eq!(w.as_slice(), [1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Pins the word-wise fold: journals, cell records and checkpoint
        // files written by earlier builds carry these checksums.
        assert_eq!(checksum(b""), 0x3564_B439_CD1E_1F16);
        assert_eq!(checksum(b"abc"), 0x8C04_BC56_BBA2_9862);
        let ramp: Vec<u8> = (0..41).collect();
        assert_eq!(checksum(&ramp), 0xAB92_2C2F_3177_0F5B);
    }
}
