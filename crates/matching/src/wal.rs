//! The write-ahead epoch log: every `DurableService` mutation appends one
//! checksummed, length-prefixed delta record *before* the epoch is
//! published, so a crash at any instant loses at most the single mutation
//! that was never acknowledged.
//!
//! # Format (version 2, little-endian)
//!
//! ```text
//! header
//!   magic       "LINKDWAL"      8 bytes
//!   version     u32             bump on any layout change
//!   registry    u64             ServiceWriter::registry_hash at log creation
//!   generation  u64             pairs the log with checkpoint-<generation>
//!   base seq    u64             mutations already folded into the checkpoint
//!   header crc  u64             FNV-1a over version..base seq
//! record*
//!   len         u32             payload bytes
//!   len check   u32             FNV-1a of the len bytes — distinguishes a
//!                               *torn* record (true header, short payload)
//!                               from a *bit-flipped* length field
//!   payload                     seq u64, op u8, string-table delta, body
//!   crc         u64             FNV-1a over the payload
//! ```
//!
//! Version 2 adds the **rule-manifest records** (`Register`, `Deregister`,
//! `Replace`): registry operations are logged like entity mutations, as
//! `(rule name, canonical rule hash)` — the rules themselves are
//! configuration and live in the recovery catalog, so the log only needs to
//! identify them.  The header's registry hash fingerprints the rule set at
//! log creation; a manifest record *changes* the expected fingerprint of
//! every later log, which recovery tracks as it replays.
//!
//! **String interning, the persist codec's trick applied per log:** each
//! record carries only the strings the log has not seen yet; values are
//! written as indices into the table that grows record by record.  The
//! reader maintains the same table during replay, so a column value
//! repeated across ten thousand inserts is logged once per generation
//! (compaction starts a fresh log, and a fresh table).
//!
//! # Damage model
//!
//! A record is **torn** when it is a proper prefix of a valid record ending
//! at EOF — exactly what a crash mid-`write` leaves behind.  Torn tails are
//! reported and tolerated: nothing past them was ever acknowledged.  Any
//! other inconsistency (checksum or length-check mismatch, undecodable
//! payload, out-of-order sequence numbers) is **corruption** — some
//! acknowledged record may be unreadable — and surfaces as
//! [`WalDamage::Corrupt`] naming the salvageable prefix, never as a panic
//! or a silently shortened log.
//!
//! Fault-injection points (`linkdisc_util::fail`, feature `failpoints`)
//! guard every write and fsync so the recovery property test can kill the
//! writer at each of them.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use linkdisc_util::fail;

use crate::persist::Fnv;

/// Current log format version (see the module docs).
pub(crate) const WAL_VERSION: u32 = 2;

const WAL_MAGIC: &[u8; 8] = b"LINKDWAL";
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;
/// Upper bound on one record's payload — far above any real mutation, low
/// enough that a corrupt length field cannot demand gigabytes.
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// FNV-1a folded to 32 bits, the length-field check.
fn fnv32(bytes: &[u8]) -> u32 {
    let digest = Fnv::digest(bytes);
    (digest ^ (digest >> 32)) as u32
}

/// Writes `bytes` through an injection point: an armed failpoint either
/// fails before writing or performs a deliberately torn (prefix-only)
/// write, the state a crash mid-`write` leaves on disk.
pub(crate) fn guarded_write(point: &str, file: &mut File, bytes: &[u8]) -> io::Result<()> {
    match fail::check(point) {
        None => file.write_all(bytes),
        Some(fail::FailAction::Error) => Err(fail::injected(point)),
        Some(fail::FailAction::TornWrite(n)) => {
            file.write_all(&bytes[..n.min(bytes.len())])?;
            Err(fail::injected(point))
        }
    }
}

/// `fsync` through an injection point (any armed action aborts before the
/// sync: the data may or may not be on disk — recovery must cope with
/// both, which is exactly what the harness exercises).
pub(crate) fn guarded_sync(point: &str, file: &File) -> io::Result<()> {
    if fail::check(point).is_some() {
        return Err(fail::injected(point));
    }
    file.sync_data()
}

/// `rename` through an injection point.
pub(crate) fn guarded_rename(point: &str, from: &Path, to: &Path) -> io::Result<()> {
    if fail::check(point).is_some() {
        return Err(fail::injected(point));
    }
    std::fs::rename(from, to)
}

/// Opens a directory handle and fsyncs it, making a preceding create or
/// rename durable; `point` is the injection point guarding it.
pub(crate) fn guarded_dir_sync(point: &str, dir: &Path) -> io::Result<()> {
    if fail::check(point).is_some() {
        return Err(fail::injected(point));
    }
    File::open(dir)?.sync_all()
}

/// One logged mutation, borrowed from the caller at append time.
pub(crate) enum Delta<'a> {
    /// Insert one entity: `(id, values aligned to the target schema)`.
    Insert(&'a str, &'a [Vec<String>]),
    /// Remove one entity by identifier.
    Remove(&'a str),
    /// Ingest a batch in one epoch: `[(id, aligned values)]`.
    Ingest(&'a [(String, Vec<Vec<String>>)]),
    /// Register a rule: `(name, canonical rule hash)`.
    Register(&'a str, u64),
    /// Deregister a rule by name.
    Deregister(&'a str),
    /// Hot-swap the rule under a name: `(name, new canonical rule hash)`.
    Replace(&'a str, u64),
}

/// The append half of the log (see the module docs).
pub(crate) struct WalWriter {
    file: File,
    interned: HashMap<String, u32>,
    bytes: u64,
    buf: Vec<u8>,
}

impl WalWriter {
    /// Creates a fresh log file (failing if one already exists), writes and
    /// fsyncs its header.  The caller must fsync the directory to make the
    /// file itself durable.
    pub(crate) fn create(
        path: &Path,
        registry_hash: u64,
        generation: u64,
        base_seq: u64,
    ) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&registry_hash.to_le_bytes());
        header.extend_from_slice(&generation.to_le_bytes());
        header.extend_from_slice(&base_seq.to_le_bytes());
        let crc = Fnv::digest(&header[8..]);
        header.extend_from_slice(&crc.to_le_bytes());
        guarded_write("wal.create.write", &mut file, &header)?;
        guarded_sync("wal.create.sync", &file)?;
        Ok(WalWriter {
            file,
            interned: HashMap::new(),
            bytes: HEADER_LEN as u64,
            buf: Vec::new(),
        })
    }

    /// Bytes written so far, header included (the compaction trigger).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one delta record.  **Not yet durable** — call
    /// [`WalWriter::sync`] before acknowledging; one sync may cover a
    /// whole ingest batch (fsync-on-publish batching).
    pub(crate) fn append(&mut self, seq: u64, delta: &Delta<'_>) -> io::Result<()> {
        // encode the payload: strings the table has not seen yet are
        // collected first, then the body references table indices
        let mut news: Vec<String> = Vec::new();
        let mut body: Vec<u8> = Vec::new();
        match delta {
            Delta::Insert(id, values) => {
                body.push(0);
                encode_entity(&mut self.interned, &mut news, id, values, &mut body);
            }
            Delta::Remove(id) => {
                body.push(1);
                refer(&mut self.interned, &mut news, id, &mut body);
            }
            Delta::Ingest(batch) => {
                body.push(2);
                body.extend_from_slice(&(batch.len() as u32).to_le_bytes());
                for (id, values) in batch.iter() {
                    encode_entity(&mut self.interned, &mut news, id, values, &mut body);
                }
            }
            Delta::Register(name, rule_hash) => {
                body.push(3);
                refer(&mut self.interned, &mut news, name, &mut body);
                body.extend_from_slice(&rule_hash.to_le_bytes());
            }
            Delta::Deregister(name) => {
                body.push(4);
                refer(&mut self.interned, &mut news, name, &mut body);
            }
            Delta::Replace(name, rule_hash) => {
                body.push(5);
                refer(&mut self.interned, &mut news, name, &mut body);
                body.extend_from_slice(&rule_hash.to_le_bytes());
            }
        }

        self.buf.clear();
        let payload_start = 8;
        self.buf.extend_from_slice(&[0; 8]); // len + len_check, patched below
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf
            .extend_from_slice(&(news.len() as u32).to_le_bytes());
        for s in &news {
            self.buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(s.as_bytes());
        }
        self.buf.extend_from_slice(&body);
        let payload_len = (self.buf.len() - payload_start) as u32;
        let len_bytes = payload_len.to_le_bytes();
        self.buf[0..4].copy_from_slice(&len_bytes);
        self.buf[4..8].copy_from_slice(&fnv32(&len_bytes).to_le_bytes());
        let crc = Fnv::digest(&self.buf[payload_start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());

        let buf = std::mem::take(&mut self.buf);
        let outcome = guarded_write("wal.append.write", &mut self.file, &buf);
        self.bytes += buf.len() as u64;
        self.buf = buf;
        outcome
    }

    /// Makes every appended record durable (`fsync`); the publish barrier.
    pub(crate) fn sync(&self) -> io::Result<()> {
        guarded_sync("wal.append.sync", &self.file)
    }
}

/// Writes the table index of `s` to `body`, interning it (and queueing it
/// for this record's string-table delta) on first use.
fn refer(interned: &mut HashMap<String, u32>, news: &mut Vec<String>, s: &str, body: &mut Vec<u8>) {
    let index = match interned.get(s) {
        Some(&index) => index,
        None => {
            let index = interned.len() as u32;
            interned.insert(s.to_string(), index);
            news.push(s.to_string());
            index
        }
    };
    body.extend_from_slice(&index.to_le_bytes());
}

/// Encodes one entity (id + schema-aligned value sets) as table references.
fn encode_entity(
    interned: &mut HashMap<String, u32>,
    news: &mut Vec<String>,
    id: &str,
    values: &[Vec<String>],
    body: &mut Vec<u8>,
) {
    refer(interned, news, id, body);
    body.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for set in values {
        body.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for value in set {
            refer(interned, news, value, body);
        }
    }
}

/// One decoded mutation record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalRecord {
    pub(crate) seq: u64,
    pub(crate) op: WalOp,
}

/// The decoded operation of a [`WalRecord`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    Insert(EntityRecord),
    Remove(String),
    Ingest(Vec<EntityRecord>),
    Register { name: String, rule_hash: u64 },
    Deregister(String),
    Replace { name: String, rule_hash: u64 },
}

/// An entity as the log stores it: identifier plus values aligned to the
/// checkpoint's target schema.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EntityRecord {
    pub(crate) id: String,
    pub(crate) values: Vec<Vec<String>>,
}

/// A successfully decoded log (possibly with a tolerated torn tail).
#[derive(Debug)]
pub(crate) struct WalContents {
    pub(crate) generation: u64,
    pub(crate) base_seq: u64,
    pub(crate) records: Vec<WalRecord>,
    /// Bytes of a torn final record that were ignored (0 for a clean log).
    pub(crate) torn_tail_bytes: u64,
}

/// Why a log could not be fully decoded.
#[derive(Debug)]
pub(crate) enum WalDamage {
    /// The file ends inside the header: the log was being created when the
    /// crash hit, so no record on it was ever acknowledged.  Tolerable.
    TornHeader,
    /// The log does not belong here (bad magic, other format version or
    /// rule hash) — a configuration error, not bit-rot.
    Mismatch(String),
    /// An acknowledged record may be unreadable: checksum or length-check
    /// mismatch, undecodable payload, or a sequence discontinuity.
    /// `valid_records` names the salvageable prefix.
    Corrupt {
        valid_records: u64,
        offset: u64,
        detail: String,
    },
}

/// Decodes a whole log file read into memory.  `expected_registry_hash`
/// validates provenance — the registry fingerprint the log's writer was
/// serving when the log was created; sequence numbers must run
/// `base_seq+1..`.
pub(crate) fn decode_wal(
    bytes: &[u8],
    expected_registry_hash: u64,
) -> Result<WalContents, WalDamage> {
    if bytes.len() < HEADER_LEN {
        return Err(WalDamage::TornHeader);
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(WalDamage::Mismatch("bad log magic".into()));
    }
    let stored_crc = u64::from_le_bytes(bytes[HEADER_LEN - 8..HEADER_LEN].try_into().unwrap());
    if Fnv::digest(&bytes[8..HEADER_LEN - 8]) != stored_crc {
        return Err(WalDamage::Corrupt {
            valid_records: 0,
            offset: 0,
            detail: "log header checksum mismatch".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(WalDamage::Mismatch(format!(
            "log version {version}, this build reads {WAL_VERSION}"
        )));
    }
    let registry_hash = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if registry_hash != expected_registry_hash {
        return Err(WalDamage::Mismatch(
            "log was written for a different rule registry".into(),
        ));
    }
    let generation = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let base_seq = u64::from_le_bytes(bytes[28..36].try_into().unwrap());

    let mut table: Vec<String> = Vec::new();
    let mut records: Vec<WalRecord> = Vec::new();
    let mut offset = HEADER_LEN;
    let mut next_seq = base_seq + 1;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return Ok(WalContents {
                generation,
                base_seq,
                records,
                torn_tail_bytes: 0,
            });
        }
        let torn = |records: &Vec<WalRecord>| {
            Ok(WalContents {
                generation,
                base_seq,
                records: records.clone(),
                torn_tail_bytes: remaining as u64,
            })
        };
        let corrupt = |detail: String, records: &Vec<WalRecord>| {
            Err(WalDamage::Corrupt {
                valid_records: records.len() as u64,
                offset: offset as u64,
                detail,
            })
        };
        if remaining < 8 {
            return torn(&records);
        }
        let len_bytes: [u8; 4] = bytes[offset..offset + 4].try_into().unwrap();
        let len = u32::from_le_bytes(len_bytes);
        let len_check = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if fnv32(&len_bytes) != len_check {
            return corrupt("record length check mismatch".into(), &records);
        }
        if len > MAX_RECORD_BYTES {
            return corrupt(format!("implausible record length {len}"), &records);
        }
        let len = len as usize;
        if remaining - 8 < len + 8 {
            // a proper prefix of a checksummed record: torn mid-write
            return torn(&records);
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        let stored = u64::from_le_bytes(
            bytes[offset + 8 + len..offset + 16 + len]
                .try_into()
                .unwrap(),
        );
        if Fnv::digest(payload) != stored {
            return corrupt("record checksum mismatch".into(), &records);
        }
        match decode_record(payload, &mut table) {
            Ok(record) => {
                if record.seq != next_seq {
                    return corrupt(
                        format!("sequence {} where {next_seq} was expected", record.seq),
                        &records,
                    );
                }
                next_seq += 1;
                records.push(record);
            }
            Err(detail) => return corrupt(detail, &records),
        }
        offset += 16 + len;
    }
}

/// Decodes one record payload, growing the replay string table.
fn decode_record(payload: &[u8], table: &mut Vec<String>) -> Result<WalRecord, String> {
    let mut cursor = Cursor {
        bytes: payload,
        at: 0,
    };
    let seq = cursor.u64()?;
    let news = cursor.u32()? as usize;
    if news > payload.len() {
        return Err(format!("implausible string-table delta {news}"));
    }
    for _ in 0..news {
        let len = cursor.u32()? as usize;
        if len > cursor.remaining() {
            return Err(format!("string length {len} beyond record"));
        }
        let raw = cursor.take(len)?;
        let value =
            std::str::from_utf8(raw).map_err(|_| "non-utf8 string in record".to_string())?;
        table.push(value.to_string());
    }
    let refer = |cursor: &mut Cursor<'_>| -> Result<String, String> {
        let index = cursor.u32()? as usize;
        table
            .get(index)
            .cloned()
            .ok_or_else(|| format!("string reference {index} out of table"))
    };
    let entity = |cursor: &mut Cursor<'_>| -> Result<EntityRecord, String> {
        let id = refer(cursor)?;
        let properties = cursor.u32()? as usize;
        if properties > cursor.remaining() {
            return Err(format!("implausible property count {properties}"));
        }
        let mut values = Vec::with_capacity(properties);
        for _ in 0..properties {
            let count = cursor.u32()? as usize;
            if count > cursor.remaining() {
                return Err(format!("implausible value count {count}"));
            }
            let mut set = Vec::with_capacity(count);
            for _ in 0..count {
                set.push(refer(cursor)?);
            }
            values.push(set);
        }
        Ok(EntityRecord { id, values })
    };
    let op = match cursor.u8()? {
        0 => WalOp::Insert(entity(&mut cursor)?),
        1 => WalOp::Remove(refer(&mut cursor)?),
        2 => {
            let count = cursor.u32()? as usize;
            if count > cursor.remaining() {
                return Err(format!("implausible batch size {count}"));
            }
            let mut batch = Vec::with_capacity(count);
            for _ in 0..count {
                batch.push(entity(&mut cursor)?);
            }
            WalOp::Ingest(batch)
        }
        3 => WalOp::Register {
            name: refer(&mut cursor)?,
            rule_hash: cursor.u64()?,
        },
        4 => WalOp::Deregister(refer(&mut cursor)?),
        5 => WalOp::Replace {
            name: refer(&mut cursor)?,
            rule_hash: cursor.u64()?,
        },
        other => return Err(format!("unknown op tag {other}")),
    };
    if cursor.remaining() != 0 {
        return Err(format!("{} trailing bytes in record", cursor.remaining()));
    }
    Ok(WalRecord { seq, op })
}

/// Bounds-checked little-endian reads over a record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err("record payload ends early".into());
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("linkdisc-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal-00000000.log")
    }

    fn sample_log(tag: &str) -> (PathBuf, Vec<u8>) {
        let path = temp_path(tag);
        let mut writer = WalWriter::create(&path, 77, 0, 0).unwrap();
        writer
            .append(
                1,
                &Delta::Insert("b9", &[vec!["berlin".into()], vec!["1237".into()]]),
            )
            .unwrap();
        writer.append(2, &Delta::Remove("b9")).unwrap();
        writer
            .append(
                3,
                &Delta::Ingest(&[
                    ("b9".to_string(), vec![vec!["berlin".into()], vec![]]),
                    ("c1".to_string(), vec![vec!["berlin".into()], vec![]]),
                ]),
            )
            .unwrap();
        writer.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn round_trips_and_interns_repeated_strings() {
        let (_, bytes) = sample_log("roundtrip");
        let contents = decode_wal(&bytes, 77).unwrap();
        assert_eq!(contents.base_seq, 0);
        assert_eq!(contents.torn_tail_bytes, 0);
        assert_eq!(contents.records.len(), 3);
        assert_eq!(
            contents.records[0].op,
            WalOp::Insert(EntityRecord {
                id: "b9".into(),
                values: vec![vec!["berlin".into()], vec!["1237".into()]],
            })
        );
        assert_eq!(contents.records[1].op, WalOp::Remove("b9".into()));
        match &contents.records[2].op {
            WalOp::Ingest(batch) => {
                assert_eq!(batch.len(), 2);
                assert_eq!(batch[1].id, "c1");
                assert_eq!(batch[1].values, vec![vec!["berlin".to_string()], vec![]]);
            }
            other => panic!("unexpected op {other:?}"),
        }
        // interning: "berlin" and "b9" appear once in the raw bytes even
        // though three records reference them
        let haystack = bytes.windows(6).filter(|w| w == b"berlin").count();
        assert_eq!(haystack, 1, "repeated values are written once per log");
    }

    #[test]
    fn registry_records_round_trip_and_share_the_string_table() {
        let path = temp_path("registry");
        let mut writer = WalWriter::create(&path, 77, 0, 0).unwrap();
        writer
            .append(1, &Delta::Register("ensemble", 0xabcd))
            .unwrap();
        writer
            .append(2, &Delta::Insert("b9", &[vec!["berlin".into()], vec![]]))
            .unwrap();
        writer
            .append(3, &Delta::Replace("ensemble", 0xef01))
            .unwrap();
        writer.append(4, &Delta::Deregister("ensemble")).unwrap();
        writer.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let contents = decode_wal(&bytes, 77).unwrap();
        assert_eq!(contents.records.len(), 4);
        assert_eq!(
            contents.records[0].op,
            WalOp::Register {
                name: "ensemble".into(),
                rule_hash: 0xabcd
            }
        );
        assert_eq!(
            contents.records[2].op,
            WalOp::Replace {
                name: "ensemble".into(),
                rule_hash: 0xef01
            }
        );
        assert_eq!(contents.records[3].op, WalOp::Deregister("ensemble".into()));
        // the rule name is interned like any other string: one raw copy
        let copies = bytes.windows(8).filter(|w| w == b"ensemble").count();
        assert_eq!(copies, 1, "rule names are written once per log");
    }

    #[test]
    fn torn_tails_are_tolerated_at_every_cut() {
        let (_, bytes) = sample_log("torn");
        let contents = decode_wal(&bytes, 77).unwrap();
        let full = contents.records.len();
        // cutting anywhere strictly inside the final record must yield the
        // prefix; cutting inside earlier records loses later full records
        // too (still no panic, still a valid prefix)
        for cut in HEADER_LEN..bytes.len() {
            let truncated = &bytes[..cut];
            let decoded = decode_wal(truncated, 77).unwrap();
            assert!(decoded.records.len() <= full);
            for (i, record) in decoded.records.iter().enumerate() {
                assert_eq!(record, &contents.records[i], "prefix at cut {cut}");
            }
        }
        // cutting inside the header is the torn-creation case
        for cut in 0..HEADER_LEN {
            assert!(matches!(
                decode_wal(&bytes[..cut], 77),
                Err(WalDamage::TornHeader)
            ));
        }
    }

    #[test]
    fn bit_flips_never_panic_and_never_pass_silently() {
        let (_, bytes) = sample_log("flip");
        let clean = decode_wal(&bytes, 77).unwrap();
        for at in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut flipped = bytes.clone();
                flipped[at] ^= bit;
                match decode_wal(&flipped, 77) {
                    // a flip must surface as damage of some kind…
                    Err(_) => {}
                    // …never as a silently different successful decode
                    Ok(decoded) => {
                        assert_eq!(
                            decoded.records, clean.records,
                            "flip at byte {at} decoded differently without an error"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_rule_or_magic_is_a_mismatch() {
        let (_, bytes) = sample_log("mismatch");
        assert!(matches!(
            decode_wal(&bytes, 78),
            Err(WalDamage::Mismatch(_))
        ));
        let mut wrong = bytes;
        wrong[0] ^= 0xff;
        assert!(matches!(
            decode_wal(&wrong, 77),
            Err(WalDamage::Mismatch(_))
        ));
    }

    #[test]
    fn mid_log_corruption_names_the_salvageable_prefix() {
        let (_, bytes) = sample_log("midlog");
        let clean = decode_wal(&bytes, 77).unwrap();
        assert_eq!(clean.records.len(), 3);
        // flip a payload byte of the second record: the first must stay
        // salvageable, the damage typed
        let record_starts: Vec<usize> = {
            let mut starts = Vec::new();
            let mut offset = HEADER_LEN;
            while offset < bytes.len() {
                starts.push(offset);
                let len =
                    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
                offset += 16 + len;
            }
            starts
        };
        let mut flipped = bytes.clone();
        flipped[record_starts[1] + 12] ^= 0x40;
        match decode_wal(&flipped, 77) {
            Err(WalDamage::Corrupt { valid_records, .. }) => assert_eq!(valid_records, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
