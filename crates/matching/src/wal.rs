//! The write-ahead epoch log: every `DurableService` mutation appends one
//! checksummed, length-prefixed delta record *before* the epoch is
//! published, so a crash at any instant loses at most the single mutation
//! that was never acknowledged.
//!
//! This module holds [`Delta`], the one mutation value every write path
//! shares (a live write, a durable commit, a replayed record), and the
//! log's byte codec: [`WalWriter`] encodes the header and each record into
//! memory, and [`decode_wal`] decodes a whole log already read into memory.
//! The log file itself — creating, appending, syncing — belongs to
//! `crate::durable`.
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
//!   len         u32             payload bytes, at most 1 GiB
//!   len check   u32             FNV-1a of the len bytes — distinguishes a
//!                               *torn* record (true header, short payload)
//!                               from a *bit-flipped* length field
//!   payload                     seq u64, string-table delta, op u8, body
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
//! **String interning, the snapshot's interner applied per log**
//! (`crate::codec::Interner`): each record carries only the strings the log
//! has not seen yet, as a table delta `[count, (len, bytes)*]`; ids, names
//! and values are written as indices into the table that grows record by
//! record, value sets as `[count, index*]`.  The reader maintains the same
//! table during replay, so a column value repeated across ten thousand
//! inserts is logged once per generation (compaction starts a fresh log,
//! and a fresh table).
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
//! or a silently shortened log.  Each record's checksum is checked before
//! its payload is decoded; the decoder still validates every field, since a
//! checksum catches accidents, not forgery.  A payload over the record
//! bound is refused by the encoder, before anything is logged, and read as
//! corruption by the decoder: both ask [`record_len`].

use linkdisc_entity::{Entity, EntityError, Schema};
use linkdisc_rule::LinkageRule;

use crate::codec::{fnv32, DecodeError, Decoder, Encoder, Fnv, Interner};
use crate::service::RegistryError;

/// Current log format version (see the module docs).
pub(crate) const WAL_VERSION: u32 = 2;

const WAL_MAGIC: &[u8; 8] = b"LINKDWAL";
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;
/// Upper bound on one record's payload — far above any real mutation, low
/// enough that a corrupt length field cannot demand gigabytes.
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// The record bound, the one place the encoder and the decoder consult: a
/// payload of `bytes` is written and read as its `u32` length field only
/// when it is at most [`MAX_RECORD_BYTES`].
pub(crate) fn record_len(bytes: usize) -> Option<u32> {
    u32::try_from(bytes)
        .ok()
        .filter(|&len| len <= MAX_RECORD_BYTES)
}

/// One service mutation, borrowing the caller's entities and rules.  A
/// live write, a durable commit and a replayed log record all build one and
/// run it through `ServiceWriter::check` and `ServiceWriter::apply`; the
/// log records it as `(id, values aligned to the store schema)` for an
/// entity and `(name, canonical rule hash)` for a rule.
#[derive(Debug, Clone, Copy)]
pub enum Delta<'a> {
    /// Insert one entity.
    Insert(&'a Entity),
    /// Remove one entity by identifier.
    Remove(&'a str),
    /// Insert a batch in one epoch, all or nothing.
    Ingest(&'a [&'a Entity]),
    /// Register a rule under a fresh name.
    Register(&'a str, &'a LinkageRule),
    /// Deregister the rule under a name.
    Deregister(&'a str),
    /// Hot-swap the rule under a name.
    Replace(&'a str, &'a LinkageRule),
}

/// Why `ServiceWriter::check` refused a [`Delta`], in the error type of the
/// delta's kind: an entity delta is only refused as [`Refused::Entity`], a
/// registry delta only as [`Refused::Registry`].
#[derive(Debug)]
pub enum Refused<E = EntityError, R = RegistryError> {
    /// An entity delta was refused (a duplicate id).
    Entity(E),
    /// A registry delta was refused (a taken or unknown name, the last rule).
    Registry(R),
}

impl<E, R> Refused<E, R> {
    /// The refusal of an entity delta.
    pub(crate) fn entity(self) -> E {
        match self {
            Refused::Entity(err) => err,
            Refused::Registry(_) => unreachable!("an entity delta is refused as one"),
        }
    }

    /// The refusal of a registry delta.
    pub(crate) fn registry(self) -> R {
        match self {
            Refused::Registry(err) => err,
            Refused::Entity(_) => unreachable!("a registry delta is refused as one"),
        }
    }
}

/// The encoding half of one log: its header, and its records against the
/// log's growing string table (see the module docs).
#[derive(Default)]
pub(crate) struct WalWriter {
    interner: Interner,
    body: Encoder,
    record: Encoder,
}

impl WalWriter {
    /// The header of a log created for `registry_hash`, pairing it with
    /// checkpoint `generation`, which holds `base_seq` mutations.
    pub(crate) fn header(registry_hash: u64, generation: u64, base_seq: u64) -> Vec<u8> {
        let mut header = Encoder::default();
        header.raw(WAL_MAGIC);
        header.u32(WAL_VERSION);
        header.u64(registry_hash);
        header.u64(generation);
        header.u64(base_seq);
        header.u64(Fnv::digest(&header.bytes[WAL_MAGIC.len()..]));
        header.bytes
    }

    /// Encodes one delta record, ready to append to the log, with each
    /// entity's values aligned to `schema` — what the store will hold for
    /// it, so replaying the record reproduces the stored entity exactly.
    /// A payload over [`MAX_RECORD_BYTES`] is refused as `Err(payload
    /// bytes)`, and the strings it interned are forgotten, so the log's
    /// string table stays that of the records actually written.
    pub(crate) fn encode(
        &mut self,
        seq: u64,
        delta: &Delta<'_>,
        schema: &Schema,
    ) -> Result<&[u8], usize> {
        // the body goes first: it interns the strings the record's table
        // delta must carry
        let table_len = self.interner.len();
        let (interner, body) = (&mut self.interner, &mut self.body);
        body.bytes.clear();
        let mut entity = |entity: &Entity, body: &mut Encoder| {
            body.u32(interner.intern(entity.id()));
            body.count(schema.len());
            let same = entity.schema().as_ref() == schema;
            for (index, property) in schema.properties().iter().enumerate() {
                let set = if same {
                    entity.values_at(index)
                } else {
                    entity.values(property)
                };
                interner.value_set(set, body);
            }
        };
        match *delta {
            Delta::Insert(insert) => {
                body.u8(0);
                entity(insert, body);
            }
            Delta::Remove(id) => {
                body.u8(1);
                body.u32(interner.intern(id));
            }
            Delta::Ingest(batch) => {
                body.u8(2);
                body.count(batch.len());
                for &insert in batch {
                    entity(insert, body);
                }
            }
            Delta::Register(name, rule) => {
                body.u8(3);
                body.u32(interner.intern(name));
                body.u64(rule.canonical_hash());
            }
            Delta::Deregister(name) => {
                body.u8(4);
                body.u32(interner.intern(name));
            }
            Delta::Replace(name, rule) => {
                body.u8(5);
                body.u32(interner.intern(name));
                body.u64(rule.canonical_hash());
            }
        }

        let record = &mut self.record;
        record.bytes.clear();
        record.raw(&[0; 8]); // len + len check, patched below
        record.u64(seq);
        self.interner.write_fresh(record);
        record.raw(&self.body.bytes);
        let Some(len) = record_len(record.bytes.len() - 8) else {
            self.interner.truncate(table_len);
            return Err(record.bytes.len() - 8);
        };
        record.bytes[0..4].copy_from_slice(&len.to_le_bytes());
        record.bytes[4..8].copy_from_slice(&fnv32(&len.to_le_bytes()).to_le_bytes());
        let crc = Fnv::digest(&record.bytes[8..]);
        record.u64(crc);
        Ok(&record.bytes)
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// `valid_records` names the salvageable prefix; the error's offset is
    /// a byte offset into the log file.
    Corrupt {
        valid_records: u64,
        error: DecodeError,
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
    let mut input = Decoder::new(bytes);
    // a header read can only fail by running out of bytes
    let (Ok(magic), Ok(version), Ok(registry_hash), Ok(generation), Ok(base_seq), Ok(crc)) = (
        input.take(WAL_MAGIC.len()),
        input.u32(),
        input.u64(),
        input.u64(),
        input.u64(),
        input.u64(),
    ) else {
        return Err(WalDamage::TornHeader);
    };
    if magic != WAL_MAGIC {
        return Err(WalDamage::Mismatch("bad log magic".into()));
    }
    let corrupt = |valid_records: usize, offset: usize, what: String| WalDamage::Corrupt {
        valid_records: valid_records as u64,
        error: DecodeError { offset, what },
    };
    if Fnv::digest(&bytes[WAL_MAGIC.len()..HEADER_LEN - 8]) != crc {
        return Err(corrupt(0, 0, "log header checksum mismatch".into()));
    }
    if version != WAL_VERSION {
        return Err(WalDamage::Mismatch(format!(
            "log version {version}, this build reads {WAL_VERSION}"
        )));
    }
    if registry_hash != expected_registry_hash {
        return Err(WalDamage::Mismatch(
            "log was written for a different rule registry".into(),
        ));
    }

    let mut table: Vec<&str> = Vec::new();
    let mut records: Vec<WalRecord> = Vec::new();
    let torn_tail_bytes = loop {
        let (offset, remaining) = (input.offset(), input.remaining());
        if remaining == 0 {
            break 0;
        }
        let (Ok(len), Ok(len_check)) = (input.u32(), input.u32()) else {
            break remaining;
        };
        if fnv32(&len.to_le_bytes()) != len_check {
            let what = "record length check mismatch".into();
            return Err(corrupt(records.len(), offset, what));
        }
        if record_len(len as usize).is_none() {
            let what = format!("implausible record length {len}");
            return Err(corrupt(records.len(), offset, what));
        }
        // a proper prefix of a checksummed record: torn mid-write
        let (Ok(payload), Ok(crc)) = (input.sub(len as usize), input.u64()) else {
            break remaining;
        };
        if Fnv::digest(payload.rest()) != crc {
            let what = "record checksum mismatch".into();
            return Err(corrupt(records.len(), offset, what));
        }
        let record = decode_record(payload, &mut table).map_err(|error| WalDamage::Corrupt {
            valid_records: records.len() as u64,
            error,
        })?;
        let next_seq = base_seq + 1 + records.len() as u64;
        if record.seq != next_seq {
            let what = format!("sequence {} where {next_seq} was expected", record.seq);
            return Err(corrupt(records.len(), offset, what));
        }
        records.push(record);
    };
    Ok(WalContents {
        generation,
        base_seq,
        records,
        torn_tail_bytes: torn_tail_bytes as u64,
    })
}

/// Decodes one record payload, growing the replay string table.
fn decode_record<'a>(
    mut payload: Decoder<'a>,
    table: &mut Vec<&'a str>,
) -> Result<WalRecord, DecodeError> {
    let seq = payload.u64()?;
    payload.strings_into(table)?;
    let table: &[&'a str] = table;
    let entity = |payload: &mut Decoder<'a>| -> Result<EntityRecord, DecodeError> {
        let id = payload.reference(table)?.to_string();
        let values = (0..payload.count()?)
            .map(|_| payload.value_set(table))
            .collect::<Result<_, _>>()?;
        Ok(EntityRecord { id, values })
    };
    let name = |payload: &mut Decoder<'a>| payload.reference(table).map(str::to_string);
    let op = match payload.u8()? {
        0 => WalOp::Insert(entity(&mut payload)?),
        1 => WalOp::Remove(name(&mut payload)?),
        2 => WalOp::Ingest(
            (0..payload.count()?)
                .map(|_| entity(&mut payload))
                .collect::<Result<_, _>>()?,
        ),
        3 => WalOp::Register {
            name: name(&mut payload)?,
            rule_hash: payload.u64()?,
        },
        4 => WalOp::Deregister(name(&mut payload)?),
        5 => WalOp::Replace {
            name: name(&mut payload)?,
            rule_hash: payload.u64()?,
        },
        other => return Err(payload.error(format!("unknown op tag {other}"))),
    };
    payload.finish()?;
    Ok(WalRecord { seq, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_rule::{compare, property, DistanceFunction};
    use std::sync::Arc;

    /// A log built in memory: its header, then every appended record —
    /// the bytes `DurableService` writes to the log file.
    struct LogBytes {
        encoder: WalWriter,
        schema: Arc<Schema>,
        bytes: Vec<u8>,
    }

    impl LogBytes {
        fn create(registry_hash: u64) -> LogBytes {
            LogBytes {
                encoder: WalWriter::default(),
                schema: Arc::new(Schema::new(["name", "phone"])),
                bytes: WalWriter::header(registry_hash, 0, 0),
            }
        }

        fn entity(&self, id: &str, name: &[&str], phone: &[&str]) -> Entity {
            let set = |values: &[&str]| values.iter().map(|v| v.to_string()).collect();
            Entity::new(id, self.schema.clone(), vec![set(name), set(phone)])
        }

        fn append(&mut self, seq: u64, delta: &Delta<'_>) {
            let record = self.encoder.encode(seq, delta, &self.schema).unwrap();
            self.bytes.extend_from_slice(record);
        }
    }

    fn sample_log() -> Vec<u8> {
        let mut writer = LogBytes::create(77);
        let b9 = writer.entity("b9", &["berlin"], &["1237"]);
        writer.append(1, &Delta::Insert(&b9));
        writer.append(2, &Delta::Remove("b9"));
        let batch = [
            writer.entity("b9", &["berlin"], &[]),
            writer.entity("c1", &["berlin"], &[]),
        ];
        writer.append(3, &Delta::Ingest(&[&batch[0], &batch[1]]));
        writer.bytes
    }

    fn rule(bound: f64) -> LinkageRule {
        compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            bound,
        )
        .into()
    }

    #[test]
    fn round_trips_and_interns_repeated_strings() {
        let bytes = sample_log();
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
        let mut writer = LogBytes::create(77);
        let (registered, replacement) = (rule(1.0), rule(2.0));
        writer.append(1, &Delta::Register("ensemble", &registered));
        let b9 = writer.entity("b9", &["berlin"], &[]);
        writer.append(2, &Delta::Insert(&b9));
        writer.append(3, &Delta::Replace("ensemble", &replacement));
        writer.append(4, &Delta::Deregister("ensemble"));
        let bytes = writer.bytes;
        let contents = decode_wal(&bytes, 77).unwrap();
        assert_eq!(contents.records.len(), 4);
        assert_eq!(
            contents.records[0].op,
            WalOp::Register {
                name: "ensemble".into(),
                rule_hash: registered.canonical_hash()
            }
        );
        assert_eq!(
            contents.records[2].op,
            WalOp::Replace {
                name: "ensemble".into(),
                rule_hash: replacement.canonical_hash()
            }
        );
        assert_eq!(contents.records[3].op, WalOp::Deregister("ensemble".into()));
        // the rule name is interned like any other string: one raw copy
        let copies = bytes.windows(8).filter(|w| w == b"ensemble").count();
        assert_eq!(copies, 1, "rule names are written once per log");
    }

    #[test]
    fn torn_tails_are_tolerated_at_every_cut() {
        let bytes = sample_log();
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
        let bytes = sample_log();
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
        let bytes = sample_log();
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
        let bytes = sample_log();
        let clean = decode_wal(&bytes, 77).unwrap();
        assert_eq!(clean.records.len(), 3);
        // flip a payload byte of the second record: the first must stay
        // salvageable, the damage typed
        let record_starts = record_starts(&bytes);
        let mut flipped = bytes.clone();
        flipped[record_starts[1] + 12] ^= 0x40;
        match decode_wal(&flipped, 77) {
            Err(WalDamage::Corrupt { valid_records, .. }) => assert_eq!(valid_records, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The offset of every record in a clean log.
    fn record_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut input = Decoder::new(bytes);
        input.take(HEADER_LEN).unwrap();
        while input.remaining() > 0 {
            starts.push(input.offset());
            let len = input.u32().unwrap() as usize;
            input.take(12 + len).unwrap();
        }
        starts
    }

    /// Checksums catch accidents, not forgery: a record whose payload is
    /// mutated, or inflated by a byte, and then re-sealed (length check
    /// and crc recomputed) reaches the payload decoder, which must answer
    /// with records or typed damage that keeps every earlier record —
    /// never a panic.
    #[test]
    fn forged_records_decode_or_fail_typed() {
        let bytes = sample_log();
        let starts = record_starts(&bytes);
        for (index, &start) in starts.iter().enumerate() {
            let len = Decoder::new(&bytes[start..]).u32().unwrap() as usize;
            let payload = start + 8..start + 8 + len;
            let mut forgeries: Vec<Vec<u8>> = Vec::new();
            for at in payload.clone() {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut payload_bytes = bytes[payload.clone()].to_vec();
                    payload_bytes[at - payload.start] ^= mask;
                    forgeries.push(payload_bytes);
                }
                if at + 4 <= payload.end {
                    let mut payload_bytes = bytes[payload.clone()].to_vec();
                    let at = at - payload.start;
                    payload_bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                    forgeries.push(payload_bytes);
                }
                let mut payload_bytes = bytes[payload.clone()].to_vec();
                payload_bytes.insert(at - payload.start, 0);
                forgeries.push(payload_bytes);
            }
            for forged in forgeries {
                // re-seal: length, length check and crc all match the forgery
                let mut record = Encoder::default();
                record.count(forged.len());
                record.u32(fnv32(&(forged.len() as u32).to_le_bytes()));
                record.raw(&forged);
                record.u64(Fnv::digest(&forged));
                let mut log = bytes[..start].to_vec();
                log.extend_from_slice(&record.bytes);
                log.extend_from_slice(&bytes[payload.end + 8..]);
                match decode_wal(&log, 77) {
                    Ok(_) => {}
                    Err(WalDamage::Corrupt { valid_records, .. }) => {
                        assert!(valid_records >= index as u64, "record {index}")
                    }
                    Err(other) => panic!("record {index}: unexpected damage {other:?}"),
                }
            }
        }
    }

    /// The record bound is one function, so the encoder's refusal and the
    /// decoder's verdict agree on both sides of it; the decoder is driven
    /// with forged length fields, the bound itself is never allocated.
    #[test]
    fn the_record_bound_is_one_function_for_both_sides() {
        let max = MAX_RECORD_BYTES as usize;
        assert_eq!(record_len(max), Some(MAX_RECORD_BYTES));
        assert_eq!(record_len(max + 1), None);
        // a length past u32 is refused, not wrapped
        assert_eq!(record_len((u32::MAX as usize) + 2), None);

        let header = WalWriter::header(77, 0, 0);
        let forged = |len: u32| {
            let mut log = header.clone();
            log.extend_from_slice(&len.to_le_bytes());
            log.extend_from_slice(&fnv32(&len.to_le_bytes()).to_le_bytes());
            log.extend_from_slice(&[0; 16]);
            decode_wal(&log, 77)
        };
        // at the bound the length is plausible: the short payload is a
        // torn tail, tolerated
        let at_bound = forged(MAX_RECORD_BYTES).unwrap();
        assert!(at_bound.records.is_empty());
        assert_eq!(at_bound.torn_tail_bytes, 24);
        // one past it is corruption
        match forged(MAX_RECORD_BYTES + 1) {
            Err(WalDamage::Corrupt { valid_records, .. }) => assert_eq!(valid_records, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A record the encoder refuses leaves the log's string table as the
    /// written records left it: a string only the refused record interned
    /// is carried again by the next record that uses it.
    #[test]
    fn a_refused_record_forgets_the_strings_it_interned() {
        let mut writer = LogBytes::create(77);
        writer.append(1, &Delta::Remove("b1"));
        // what encode does with a refused record's strings
        let table = writer.encoder.interner.len();
        writer.encoder.interner.intern("b2");
        writer.encoder.interner.truncate(table);
        assert_eq!(writer.encoder.interner.len(), table);
        writer.append(2, &Delta::Remove("b2"));
        let contents = decode_wal(&writer.bytes, 77).unwrap();
        assert_eq!(contents.records[1].op, WalOp::Remove("b2".into()));
    }
}
