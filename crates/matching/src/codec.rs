//! The little-endian byte codec under both on-disk formats, the snapshot
//! ([`crate::persist`]) and the write-ahead log (`crate::wal`).
//!
//! Encoding appends to a `Vec<u8>`; decoding reads a byte slice that is
//! already in memory — the codecs never touch a file.  A decoder trusts no
//! length field: a count or length is refused unless the bytes it claims
//! still remain, counting each element at the fewest bytes it takes on the
//! wire, so the memory a hostile input can make the decoder reserve is a
//! small multiple of its own size.
//!
//! Both formats intern strings the same way ([`Interner`]): the first use of
//! a string gives it the next `u32` index and queues it for the next string
//! table (the snapshot's one table, or a log record's table delta), written
//! as `[count, (len, bytes)*]`; a value set is written as `[count, index*]`.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// FNV-1a 64, the checksum of both formats and the shard router's id hash
/// (fast, dependency-free, catches the truncation and bit-rot cases a
/// restart must not silently absorb).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One-shot digest of a byte slice.
    pub(crate) fn digest(bytes: &[u8]) -> u64 {
        let mut crc = Fnv::new();
        crc.update(bytes);
        crc.0
    }
}

/// FNV-1a folded to 32 bits, the log's record-length check.
pub(crate) fn fnv32(bytes: &[u8]) -> u32 {
    let digest = Fnv::digest(bytes);
    (digest ^ (digest >> 32)) as u32
}

/// Why bytes could not be decoded: the absolute byte offset in the decoded
/// input where decoding stopped, and what failed there.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the decoded file or buffer.
    pub offset: usize,
    /// What failed (a truncation, an implausible length, a broken
    /// structural invariant, a checksum mismatch).
    pub what: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.what, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    pub(crate) bytes: Vec<u8>,
}

impl Encoder {
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    pub(crate) fn u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    pub(crate) fn u32(&mut self, value: u32) {
        self.raw(&value.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, value: u64) {
        self.raw(&value.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, value: f64) {
        self.raw(&value.to_le_bytes());
    }

    /// A count or length field.
    pub(crate) fn count(&mut self, count: usize) {
        self.u32(count as u32);
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, value: &str) {
        self.count(value.len());
        self.raw(value.as_bytes());
    }
}

/// Bounds-checked little-endian reads over an in-memory byte slice.
#[derive(Debug)]
pub(crate) struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Offset of `bytes[0]` in the whole input (non-zero for a [`Decoder::sub`]).
    base: usize,
}

impl<'a> Decoder<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Decoder {
            bytes,
            at: 0,
            base: 0,
        }
    }

    /// Absolute offset of the next unread byte.
    pub(crate) fn offset(&self) -> usize {
        self.base + self.at
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The unread bytes, left unread.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    /// An error at the current offset.
    pub(crate) fn error(&self, what: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.offset(),
            what: what.into(),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.error(format!("{n} bytes wanted, {} remain", self.remaining())));
        }
        self.at += n;
        Ok(&self.bytes[self.at - n..self.at])
    }

    /// Splits off the next `n` bytes as a decoder of their own (its offsets
    /// stay absolute).
    pub(crate) fn sub(&mut self, n: usize) -> Result<Decoder<'a>, DecodeError> {
        let base = self.offset();
        Ok(Decoder {
            bytes: self.take(n)?,
            at: 0,
            base,
        })
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut array = [0; N];
        array.copy_from_slice(self.take(N)?);
        Ok(array)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A count or length field, refused unless that many bytes remain.
    pub(crate) fn count(&mut self) -> Result<usize, DecodeError> {
        self.count_of(1)
    }

    /// A count of elements that each take at least `min_bytes` on the wire,
    /// refused unless `count × min_bytes` bytes remain — so a `Vec` reserved
    /// for `count` elements is at most `size_of::<T>() / min_bytes` times
    /// the rest of the input.
    pub(crate) fn count_of(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_bytes) > self.remaining() {
            return Err(self.error(format!(
                "implausible count {count} of {min_bytes}-byte elements: {} bytes remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    pub(crate) fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.count()?;
        let at = self.offset();
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError {
            offset: at,
            what: "non-utf8 string".into(),
        })
    }

    /// Reads a string table (or table delta) `[count, (len, bytes)*]`,
    /// appending it to `table`.
    pub(crate) fn strings_into(&mut self, table: &mut Vec<&'a str>) -> Result<(), DecodeError> {
        for _ in 0..self.count_of(4)? {
            table.push(self.str()?);
        }
        Ok(())
    }

    /// A `u32` string-table index, resolved.
    pub(crate) fn reference(&mut self, table: &[&'a str]) -> Result<&'a str, DecodeError> {
        let index = self.u32()? as usize;
        table
            .get(index)
            .copied()
            .ok_or_else(|| self.error(format!("string table index {index} out of range")))
    }

    /// A value set `[count, index*]`, resolved against the string table.
    pub(crate) fn value_set(&mut self, table: &[&'a str]) -> Result<Vec<String>, DecodeError> {
        let count = self.count_of(4)?;
        let mut set = Vec::with_capacity(count);
        for _ in 0..count {
            set.push(self.reference(table)?.to_string());
        }
        Ok(set)
    }

    /// Succeeds when every byte was read.
    pub(crate) fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            trailing => Err(self.error(format!("{trailing} trailing bytes"))),
        }
    }
}

/// First-use `u32` indices for strings, shared by both formats (see the
/// module docs).  The key is `Box<str>` for the log, whose interner
/// outlives every record it encodes, and `&str` for a snapshot, which
/// borrows the store it encodes.
#[derive(Debug, Default)]
pub(crate) struct Interner<K = Box<str>> {
    indices: HashMap<K, u32>,
    /// `(len, bytes)*` of the strings interned since the last table write.
    fresh: Encoder,
    fresh_count: usize,
}

impl<K: Borrow<str> + Hash + Eq> Interner<K> {
    /// The index of `value`, interning it on first use.
    pub(crate) fn intern<'v>(&mut self, value: &'v str) -> u32
    where
        K: From<&'v str>,
    {
        if let Some(&index) = self.indices.get(value) {
            return index;
        }
        let index = self.indices.len() as u32;
        self.indices.insert(K::from(value), index);
        self.fresh.str(value);
        self.fresh_count += 1;
        index
    }

    /// Writes a value set as `[count, index*]`, interning its values.
    pub(crate) fn value_set<'v>(&mut self, values: &'v [String], out: &mut Encoder)
    where
        K: From<&'v str>,
    {
        out.count(values.len());
        for value in values {
            let index = self.intern(value);
            out.u32(index);
        }
    }

    /// Number of strings interned so far.
    pub(crate) fn len(&self) -> usize {
        self.indices.len()
    }

    /// Forgets every string interned at index `len` or later, and the
    /// queued table entries: the strings of a record that was encoded but
    /// will never be written.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.indices.retain(|_, index| (*index as usize) < len);
        self.fresh.bytes.clear();
        self.fresh_count = 0;
    }

    /// Writes the strings interned since the last call as
    /// `[count, (len, bytes)*]`.
    pub(crate) fn write_fresh(&mut self, out: &mut Encoder) {
        out.count(self.fresh_count);
        out.raw(&self.fresh.bytes);
        self.fresh.bytes.clear();
        self.fresh_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_errors_name_their_offset() {
        let mut out = Encoder::default();
        out.u8(7);
        out.u32(0xdead_beef);
        out.u64(u64::MAX - 1);
        out.f64(0.25);
        out.str("café");
        let mut input = Decoder::new(&out.bytes);
        assert_eq!(input.u8(), Ok(7));
        assert_eq!(input.u32(), Ok(0xdead_beef));
        assert_eq!(input.u64(), Ok(u64::MAX - 1));
        assert_eq!(input.f64(), Ok(0.25));
        assert_eq!(input.str(), Ok("café"));
        assert_eq!(input.finish(), Ok(()));
        let err = input.u8().unwrap_err();
        assert_eq!(err.offset, out.bytes.len());
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_refused() {
        let mut out = Encoder::default();
        out.count(5);
        out.raw(&[1, 2, 3, 4]);
        let err = Decoder::new(&out.bytes).count().unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.what.contains("implausible count 5"), "{err}");
        let mut out = Encoder::default();
        out.str("four");
        out.bytes.truncate(7);
        assert!(Decoder::new(&out.bytes).str().is_err());
    }

    #[test]
    fn reservations_stay_proportional_to_the_remaining_bytes() {
        // a value set whose count claims one more 4-byte index than remains
        // is refused before anything is reserved
        let table = ["x"];
        let mut out = Encoder::default();
        out.count(9);
        out.raw(&[0; 32]);
        let err = Decoder::new(&out.bytes).value_set(&table).unwrap_err();
        assert!(err.what.contains("implausible count 9"), "{err}");
        // the largest count that passes reserves `size_of::<String>() / 4`
        // bytes per remaining byte, and no more
        let mut out = Encoder::default();
        out.count(8);
        out.raw(&[0; 32]);
        let set = Decoder::new(&out.bytes).value_set(&table).unwrap();
        let reserved = set.capacity() * std::mem::size_of::<String>();
        assert!(reserved <= 32 * std::mem::size_of::<String>() / 4);
        let mut out = Encoder::default();
        out.count(2);
        out.raw(&[0; 7]);
        assert!(Decoder::new(&out.bytes).count_of(4).is_err());
        assert_eq!(Decoder::new(&out.bytes).count_of(3), Ok(2));
    }

    #[test]
    fn sub_decoders_report_absolute_offsets() {
        let bytes = [0u8; 12];
        let mut input = Decoder::new(&bytes);
        input.u32().unwrap();
        let mut inner = input.sub(4).unwrap();
        assert_eq!(inner.offset(), 4);
        inner.u32().unwrap();
        assert_eq!(inner.u8().unwrap_err().offset, 8);
        assert_eq!(input.offset(), 8);
        assert!(input.sub(5).is_err());
    }

    #[test]
    fn interned_tables_and_value_sets_round_trip() {
        let mut interner: Interner = Interner::default();
        let mut body = Encoder::default();
        let first = ["a".to_string(), "b".to_string(), "a".to_string()];
        interner.value_set(&first, &mut body);
        let mut delta = Encoder::default();
        interner.write_fresh(&mut delta);
        // a second table delta carries only the strings new since the first
        let second = ["b".to_string(), "c".to_string()];
        interner.value_set(&second, &mut body);
        interner.write_fresh(&mut delta);

        let mut table = Vec::new();
        let mut strings = Decoder::new(&delta.bytes);
        strings.strings_into(&mut table).unwrap();
        assert_eq!(table, ["a", "b"]);
        strings.strings_into(&mut table).unwrap();
        assert_eq!(table, ["a", "b", "c"]);
        let mut sets = Decoder::new(&body.bytes);
        assert_eq!(sets.value_set(&table).unwrap(), first);
        assert_eq!(sets.value_set(&table).unwrap(), second);
        sets.finish().unwrap();
        // an index past the table is an error, not a panic
        let mut out = Encoder::default();
        out.count(1);
        out.u32(3);
        assert!(Decoder::new(&out.bytes).value_set(&table).is_err());
    }
}
