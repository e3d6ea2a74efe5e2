//! Crash-safe serving: a [`DurableService`] wraps a [`ServiceWriter`] so
//! that every acknowledged mutation survives a crash, and restart costs
//! O(churn since the last checkpoint), not O(store).
//!
//! # Write path
//!
//! Each `insert` / `remove` / `ingest` call:
//!
//! 1. validates (duplicate ids fail *before* anything is logged),
//! 2. appends one delta record to the write-ahead log
//!    ([`crate::wal`]) and `fsync`s it — one sync per epoch, so an ingest
//!    batch pays a single sync (fsync-on-publish batching),
//! 3. applies the mutation to the in-memory writer and publishes the
//!    epoch readers see,
//! 4. acknowledges.
//!
//! A crash before step 2 completes loses only the unacknowledged call; a
//! crash after it loses nothing — recovery replays the record.  If a log
//! write itself fails, the service **poisons** itself (every later call
//! errors with [`DurableError::Poisoned`]): the in-memory state may be
//! ahead of or behind the log, and only [`DurableService::recover`] can
//! re-establish the invariant.
//!
//! This is the one module that decides which files exist.  The snapshot
//! and log codecs ([`crate::persist`], `crate::wal`) encode into and decode
//! from memory; the files, their fsyncs and renames live here, and reach
//! the file system only through the directory's
//! [`Storage`](crate::storage::Storage).  A plain path means
//! [`Disk`](crate::storage::Disk); the fault harness passes an in-memory
//! storage that fails or tears a scheduled operation and, at a crash,
//! drops every byte and directory entry that was not fsynced.
//!
//! # Checkpoints and compaction
//!
//! The snapshot codec ([`crate::persist`]) is the checkpoint format.  When
//! the log outgrows [`DurabilityOptions::log_budget_bytes`], the service
//! rolls it into a new checkpoint generation:
//!
//! ```text
//! write checkpoint-<g+1>.snap.tmp, fsync      (full state, checksummed)
//! create wal-<g+1>.log (header only), fsync   (base seq = mutations so far)
//! fsync dir                                   (log file durable)
//! rename .tmp -> checkpoint-<g+1>.snap        (atomic commit point)
//! fsync dir                                   (rename durable)
//! retire generations < g                      (keep <g> for fallback)
//! ```
//!
//! The rename is the commit: a crash anywhere before it leaves generation
//! `g` authoritative (a stray `.tmp` or an empty `wal-<g+1>` is ignored);
//! a crash after it leaves `g+1` authoritative with an empty log.  The
//! *previous* generation (checkpoint + its logs) is retained so a corrupt
//! latest checkpoint can fall back one generation and replay forward.
//!
//! # Recovery
//!
//! [`DurableService::recover`] restores the newest readable checkpoint,
//! replays every log generation from it forward (validating per-record
//! checksums and sequence continuity), tolerates a torn final record
//! (nothing past it was acknowledged), and then re-checkpoints into a
//! fresh generation.  The recovered state is **bit-identical** to a
//! sequential replay of the acknowledged epochs — same slots, free list,
//! leaf maps and statistics — because checkpoint restore is bit-identical
//! (PR 5's restore == rebuild property) and replay drives the exact same
//! insert/remove code paths the original writer ran.  Unreadable
//! acknowledged data is never silently dropped: it surfaces as a typed
//! [`RecoveryError`] naming the salvageable prefix.
//!
//! # Sharding
//!
//! `ShardedService<DurableService>` ([`ShardedService::create`],
//! [`ShardedService::recover`]) runs one independent `DurableService` per
//! shard, each with its **own** checkpoint/WAL generation chain under
//! `<dir>/shard-NNN/`.  Shards append, fsync and compact concurrently, and
//! a crash — or a poisoned write — in one shard's WAL or compaction never
//! touches another shard's acknowledged epochs.  A cross-shard ingest is
//! per-shard atomic (one log record per touched shard), not cross-shard
//! atomic; registry operations reach shard 0 first, and recovery rolls the
//! other shards' registries forward to shard 0's.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use linkdisc_entity::{DataSource, Entity, EntityError, Schema};
use linkdisc_rule::LinkageRule;

use crate::persist::SnapshotError;
use crate::service::{RegistryError, ServiceOptions, ServiceReader, ServiceWriter, DEFAULT_RULE};
use crate::sharded::{ShardRouter, ShardedService};
use crate::storage::Dir;
use crate::wal::{decode_wal, Delta, WalContents, WalDamage, WalOp, WalWriter};

/// Tuning of the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Log size (bytes, header included) beyond which the next mutation
    /// rolls the log into a fresh checkpoint generation.
    pub log_budget_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            log_budget_bytes: 4 << 20,
        }
    }
}

/// Why a durable mutation (or service creation) failed.
#[derive(Debug)]
pub enum DurableError {
    /// Invalid input data (e.g. a duplicate entity id) — the service state
    /// and the log are untouched.
    Entity(EntityError),
    /// A log or filesystem operation failed; if it happened mid-mutation
    /// the service is now poisoned.
    Io(io::Error),
    /// The directory already holds durable state — use
    /// [`DurableService::recover`] instead of `create`.
    AlreadyDurable(PathBuf),
    /// A rule-registry operation was invalid (duplicate name, unknown name,
    /// last rule) — the service state and the log are untouched.
    Registry(RegistryError),
    /// A previous durable write failed, so the in-memory state can no
    /// longer be trusted to match the log; recover from disk.
    Poisoned,
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Entity(err) => write!(f, "invalid entity: {err}"),
            DurableError::Io(err) => write!(f, "durability i/o error: {err}"),
            DurableError::AlreadyDurable(dir) => {
                write!(f, "directory {} already holds durable state", dir.display())
            }
            DurableError::Registry(err) => write!(f, "invalid registry operation: {err}"),
            DurableError::Poisoned => {
                write!(f, "a durable write failed earlier; recover from disk")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<EntityError> for DurableError {
    fn from(err: EntityError) -> Self {
        DurableError::Entity(err)
    }
}

impl From<io::Error> for DurableError {
    fn from(err: io::Error) -> Self {
        DurableError::Io(err)
    }
}

impl From<RegistryError> for DurableError {
    fn from(err: RegistryError) -> Self {
        DurableError::Registry(err)
    }
}

/// Why recovery could not restore a directory, and what would be
/// salvageable (see the module docs: acknowledged data is never silently
/// dropped).
#[derive(Debug)]
pub enum RecoveryError {
    /// The directory could not be read.
    Io(io::Error),
    /// No checkpoint file exists — the directory holds no durable state.
    NoCheckpoint(PathBuf),
    /// Every checkpoint generation failed to restore; `generation` and
    /// `detail` describe the newest one.
    CorruptCheckpoint { generation: u64, detail: String },
    /// A log record that may have been acknowledged is unreadable.
    /// `valid_epochs` epochs (on top of checkpoint `generation`) replay
    /// cleanly before the damage — the salvageable prefix.
    CorruptLog {
        generation: u64,
        valid_epochs: u64,
        detail: String,
    },
    /// The on-disk state belongs to a different rule or format version.
    Mismatch(String),
    /// A decoded record could not be applied — the log and checkpoint
    /// disagree structurally (e.g. inserting an id the checkpoint already
    /// holds).
    Replay { seq: u64, detail: String },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(err) => write!(f, "recovery i/o error: {err}"),
            RecoveryError::NoCheckpoint(dir) => {
                write!(f, "no checkpoint in {}", dir.display())
            }
            RecoveryError::CorruptCheckpoint { generation, detail } => {
                write!(f, "checkpoint generation {generation} is corrupt: {detail}")
            }
            RecoveryError::CorruptLog {
                generation,
                valid_epochs,
                detail,
            } => write!(
                f,
                "log generation {generation} is corrupt after {valid_epochs} replayable \
                 epoch(s): {detail}"
            ),
            RecoveryError::Mismatch(why) => write!(f, "recovery mismatch: {why}"),
            RecoveryError::Replay { seq, detail } => {
                write!(f, "cannot replay epoch {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(err: io::Error) -> Self {
        RecoveryError::Io(err)
    }
}

/// What [`DurableService::recover`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint generation the recovered state is based on.
    pub checkpoint_generation: u64,
    /// Epochs replayed from the log tail on top of the checkpoint.
    pub replayed_epochs: u64,
    /// Bytes of torn (never-acknowledged) log tail that were tolerated.
    pub torn_tail_bytes: u64,
    /// How many newer checkpoint generations were skipped as unreadable
    /// before one restored (0 in the common case).
    pub fallback_generations: u64,
}

/// A crash-safe [`ServiceWriter`]: write-ahead logged, checkpointed,
/// recoverable (see the module docs).
pub struct DurableService {
    writer: ServiceWriter,
    wal: Log,
    dir: Dir,
    generation: u64,
    /// Oldest generation retained on disk (the fallback checkpoint).
    keep_from: u64,
    /// Mutations ever logged (across all generations).
    seq: u64,
    durability: DurabilityOptions,
    poisoned: bool,
}

impl std::fmt::Debug for DurableService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableService")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("seq", &self.seq)
            .field("entities", &self.writer.len())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// The open log of the current generation: its path, the bytes written to
/// it, and the record encoder whose string table spans it.
struct Log {
    path: PathBuf,
    bytes: u64,
    encoder: WalWriter,
}

fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("checkpoint-{generation:08}.snap"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.log"))
}

/// The durable files present in a directory.
struct DirScan {
    /// Generations with a committed checkpoint, ascending.
    checkpoints: Vec<u64>,
    /// Generations with a log file, ascending.
    wals: Vec<u64>,
    /// Stray `.tmp` files from an interrupted checkpoint write.
    stray_tmp: Vec<PathBuf>,
}

impl DirScan {
    fn max_generation(&self) -> Option<u64> {
        self.checkpoints
            .last()
            .copied()
            .max(self.wals.last().copied())
    }
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    (rest.len() == 8).then(|| rest.parse().ok())?
}

/// The names in a directory; a missing directory has none.
fn list(dir: &Dir) -> io::Result<Vec<String>> {
    match dir.storage().list(dir.path()) {
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        names => names,
    }
}

/// Creates a directory and fsyncs its parent, so that the new entry
/// survives a crash, and with it the files made durable inside.
fn create_dir(dir: &Dir) -> io::Result<()> {
    let (disk, path) = (dir.storage(), dir.path());
    disk.create_dir(path)?;
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    disk.sync_dir(parent.unwrap_or(Path::new(".")))
}

fn scan_dir(dir: &Dir) -> io::Result<DirScan> {
    let mut scan = DirScan {
        checkpoints: Vec::new(),
        wals: Vec::new(),
        stray_tmp: Vec::new(),
    };
    for name in list(dir)? {
        if name.ends_with(".tmp") {
            scan.stray_tmp.push(dir.path().join(name));
        } else if let Some(generation) = parse_generation(&name, "checkpoint-", ".snap") {
            scan.checkpoints.push(generation);
        } else if let Some(generation) = parse_generation(&name, "wal-", ".log") {
            scan.wals.push(generation);
        }
    }
    scan.checkpoints.sort_unstable();
    scan.wals.sort_unstable();
    Ok(scan)
}

/// Writes checkpoint + fresh log for `generation` in crash-safe order (see
/// the module docs) and returns the open log.  A stray `.tmp` of this
/// generation, left by a killed write, is replaced.
fn write_generation(
    dir: &Dir,
    writer: &ServiceWriter,
    generation: u64,
    seq: u64,
) -> Result<Log, DurableError> {
    let (disk, path) = (dir.storage(), dir.path());
    let tmp = path.join(format!("checkpoint-{generation:08}.snap.tmp"));
    let _ = disk.remove(&tmp);
    disk.create_new(&tmp)?;
    disk.append(&tmp, &writer.encode_snapshot())?;
    disk.sync(&tmp)?;
    // a fresh log file (never an existing one), its header written and
    // fsynced; the directory sync below makes the file itself durable
    let wal = wal_path(path, generation);
    disk.create_new(&wal)?;
    let header = WalWriter::header(writer.registry_hash(), generation, seq);
    disk.append(&wal, &header)?;
    disk.sync(&wal)?;
    disk.sync_dir(path)?;
    disk.rename(&tmp, &checkpoint_path(path, generation))?;
    disk.sync_dir(path)?;
    Ok(Log {
        path: wal,
        bytes: header.len() as u64,
        encoder: WalWriter::default(),
    })
}

/// Deletes every generation file below `keep_from` (and stray tmp files).
/// Purely an act of hygiene: a crash part-way through, or a failed remove,
/// leaves extra files recovery simply ignores or falls back over.
fn retire(dir: &Dir, keep_from: u64) -> io::Result<()> {
    let scan = scan_dir(dir)?;
    let (disk, path) = (dir.storage(), dir.path());
    for tmp in scan.stray_tmp {
        let _ = disk.remove(&tmp);
    }
    for generation in scan.checkpoints {
        if generation < keep_from {
            let _ = disk.remove(&checkpoint_path(path, generation));
        }
    }
    for generation in scan.wals {
        if generation < keep_from {
            let _ = disk.remove(&wal_path(path, generation));
        }
    }
    Ok(())
}

/// The entity's value sets aligned to the target schema — exactly what the
/// store will hold for it, so replaying the record reproduces the stored
/// entity bit-identically.
fn aligned_values(entity: &Entity, schema: &Schema) -> Vec<Vec<String>> {
    let same = entity.schema().as_ref() == schema;
    (0..schema.len())
        .map(|index| {
            if same {
                entity.values_at(index).to_vec()
            } else {
                entity.values(&schema.properties()[index]).to_vec()
            }
        })
        .collect()
}

impl DurableService {
    /// Creates a durable service over a materialised target source: builds
    /// the index, writes checkpoint generation 0 and opens its log.  Fails
    /// with [`DurableError::AlreadyDurable`] if the directory already
    /// holds durable state (use [`DurableService::recover`]).  `dir` is a
    /// path on [`Disk`](crate::storage::Disk) or a [`Dir`] on another
    /// storage.
    pub fn create(
        dir: impl Into<Dir>,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        options: ServiceOptions,
        durability: DurabilityOptions,
    ) -> Result<DurableService, DurableError> {
        let writer = ServiceWriter::build(rule, source_schema, target, options)?;
        DurableService::initialise(dir.into(), writer, durability)
    }

    /// Creates an empty durable service (populate through
    /// [`DurableService::ingest`] / [`DurableService::insert`]).
    pub fn create_empty(
        dir: impl Into<Dir>,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        options: ServiceOptions,
        durability: DurabilityOptions,
    ) -> Result<DurableService, DurableError> {
        let writer = ServiceWriter::empty(rule, source_schema, target_schema, options);
        DurableService::initialise(dir.into(), writer, durability)
    }

    fn initialise(
        dir: Dir,
        writer: ServiceWriter,
        durability: DurabilityOptions,
    ) -> Result<DurableService, DurableError> {
        create_dir(&dir)?;
        let scan = scan_dir(&dir)?;
        if !scan.checkpoints.is_empty() || !scan.wals.is_empty() {
            return Err(DurableError::AlreadyDurable(dir.path().to_path_buf()));
        }
        let wal = write_generation(&dir, &writer, 0, 0)?;
        Ok(DurableService {
            writer,
            wal,
            dir,
            generation: 0,
            keep_from: 0,
            seq: 0,
            durability,
            poisoned: false,
        })
    }

    /// The wrapped writer (read-only access: stats, store, snapshots).
    pub fn writer(&self) -> &ServiceWriter {
        &self.writer
    }

    /// A new reader over the published epochs (see [`ServiceWriter::reader`]).
    pub fn reader(&self) -> ServiceReader {
        self.writer.reader()
    }

    /// Number of live target entities.
    pub fn len(&self) -> usize {
        self.writer.len()
    }

    /// Returns `true` when no target entity is served.
    pub fn is_empty(&self) -> bool {
        self.writer.is_empty()
    }

    /// Mutations acknowledged over the service's whole lifetime (the WAL
    /// sequence number of the newest durable epoch).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes in the current log (compaction triggers past the budget).
    pub fn log_bytes(&self) -> u64 {
        self.wal.bytes
    }

    /// The directory holding checkpoints and logs.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    pub(crate) fn guard(&self) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        Ok(())
    }

    /// Logs one delta durably (append, then fsync — the publish barrier);
    /// poisons the service on failure.
    fn log(&mut self, delta: &Delta<'_>) -> Result<(), DurableError> {
        self.seq += 1;
        let (wal, disk) = (&mut self.wal, self.dir.storage());
        let record = wal.encoder.encode(self.seq, delta);
        wal.bytes += record.len() as u64;
        let outcome = disk
            .append(&wal.path, record)
            .and_then(|()| disk.sync(&wal.path));
        if let Err(err) = outcome {
            self.poisoned = true;
            return Err(DurableError::Io(err));
        }
        Ok(())
    }

    /// Adds one target entity durably: logged and fsynced before the epoch
    /// publishes and the position is acknowledged.
    pub fn insert(&mut self, entity: &Entity) -> Result<u32, DurableError> {
        self.guard()?;
        if self.writer.contains(entity.id()) {
            return Err(EntityError::DuplicateEntity(entity.id().to_string()).into());
        }
        let values = aligned_values(entity, self.writer.store().schema());
        self.log(&Delta::Insert(entity.id(), &values))?;
        let position = self
            .writer
            .insert_unpublished(entity)
            .expect("id uniqueness was validated before logging");
        self.writer.publish();
        self.maybe_compact()?;
        Ok(position)
    }

    /// Removes a target entity durably.  Returns `Ok(false)` (logging
    /// nothing) when the id is not served.
    pub fn remove(&mut self, id: &str) -> Result<bool, DurableError> {
        self.guard()?;
        if !self.writer.contains(id) {
            return Ok(false);
        }
        self.log(&Delta::Remove(id))?;
        assert!(
            self.writer.remove_unpublished(id),
            "presence was validated before logging"
        );
        self.writer.publish();
        self.maybe_compact()?;
        Ok(true)
    }

    /// Ingests a batch durably as **one atomic epoch**: one log record, one
    /// fsync, one publication.  Unlike [`ServiceWriter::ingest`] (which
    /// keeps the prefix of a failing batch), a duplicate id anywhere fails
    /// the whole batch up front — nothing is logged, nothing applied:
    /// atomicity is what makes a single log record sufficient.
    pub fn ingest(&mut self, entities: &[Entity]) -> Result<usize, DurableError> {
        self.guard()?;
        let mut batch_ids = std::collections::HashSet::new();
        for entity in entities {
            if self.writer.contains(entity.id()) || !batch_ids.insert(entity.id()) {
                return Err(EntityError::DuplicateEntity(entity.id().to_string()).into());
            }
        }
        let schema = self.writer.store().schema().clone();
        let batch: Vec<(String, Vec<Vec<String>>)> = entities
            .iter()
            .map(|entity| (entity.id().to_string(), aligned_values(entity, &schema)))
            .collect();
        self.log(&Delta::Ingest(&batch))?;
        for entity in entities {
            self.writer
                .insert_unpublished(entity)
                .expect("batch uniqueness was validated before logging");
        }
        self.writer.publish();
        self.maybe_compact()?;
        Ok(entities.len())
    }

    /// Registers a rule durably: the manifest record is logged and fsynced
    /// *before* the registry changes and the epoch publishes, so a crash at
    /// any instant recovers to either the pre- or post-registration rule
    /// set — never a torn registry.  See
    /// [`ServiceWriter::register_rule`] for the in-memory semantics (warm
    /// registration builds only the missing pool leaves).
    pub fn register_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), DurableError> {
        self.guard()?;
        if self.writer.has_rule(name) {
            return Err(RegistryError::DuplicateRule(name.to_string()).into());
        }
        self.log(&Delta::Register(name, rule.canonical_hash()))?;
        self.writer
            .register_rule_unpublished(name, rule)
            .expect("name uniqueness was validated before logging");
        self.writer.publish();
        self.maybe_compact()?;
        Ok(())
    }

    /// Deregisters a rule durably (logged and fsynced before the registry
    /// changes) — see [`ServiceWriter::deregister_rule`].
    pub fn deregister_rule(&mut self, name: &str) -> Result<(), DurableError> {
        self.guard()?;
        if !self.writer.has_rule(name) {
            return Err(RegistryError::UnknownRule(name.to_string()).into());
        }
        if self.writer.rule_count() == 1 {
            return Err(RegistryError::LastRule.into());
        }
        self.log(&Delta::Deregister(name))?;
        self.writer
            .deregister_rule_unpublished(name)
            .expect("presence and registry size were validated before logging");
        self.writer.publish();
        self.maybe_compact()?;
        Ok(())
    }

    /// Hot-swaps a rule durably (logged and fsynced before the swap) — see
    /// [`ServiceWriter::replace_rule`].
    pub fn replace_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), DurableError> {
        self.guard()?;
        if !self.writer.has_rule(name) {
            return Err(RegistryError::UnknownRule(name.to_string()).into());
        }
        self.log(&Delta::Replace(name, rule.canonical_hash()))?;
        self.writer
            .replace_rule_unpublished(name, rule)
            .expect("presence was validated before logging");
        self.writer.publish();
        self.maybe_compact()?;
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), DurableError> {
        if self.wal.bytes <= self.durability.log_budget_bytes {
            return Ok(());
        }
        self.compact()
    }

    /// Rolls the log into a fresh checkpoint generation now (normally
    /// triggered automatically by [`DurabilityOptions::log_budget_bytes`]).
    /// The previous generation is retained as the corruption fallback.
    pub fn compact(&mut self) -> Result<(), DurableError> {
        self.guard()?;
        let next = self.generation + 1;
        let wal = match write_generation(&self.dir, &self.writer, next, self.seq) {
            Ok(wal) => wal,
            Err(err) => {
                // the acknowledged state is still fully durable in the old
                // generation, but this handle may have half-written files
                // on disk — require recovery rather than guessing
                self.poisoned = true;
                return Err(err);
            }
        };
        let previous = self.generation;
        self.wal = wal;
        self.generation = next;
        self.keep_from = previous;
        if let Err(err) = retire(&self.dir, self.keep_from) {
            self.poisoned = true;
            return Err(DurableError::Io(err));
        }
        Ok(())
    }

    /// Restores the newest readable checkpoint and replays the log tail for
    /// a single-rule service — sugar for
    /// [`DurableService::recover_with_rules`] with a one-entry catalog
    /// under the default name.
    pub fn recover(
        dir: impl Into<Dir>,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        durability: DurabilityOptions,
    ) -> Result<(DurableService, RecoveryReport), RecoveryError> {
        DurableService::recover_with_rules(
            dir,
            &[(DEFAULT_RULE.to_string(), rule)],
            source_schema,
            durability,
        )
    }

    /// Restores the newest readable checkpoint and replays the log tail;
    /// see the module docs for the damage model.  The checkpoint's rule
    /// manifest and any logged registry operations are resolved against
    /// `catalog` (name → rule, hash-validated; unused catalog entries are
    /// fine).  On success the state is bit-identical to a sequential
    /// replay of every acknowledged epoch — registry operations included —
    /// re-checkpointed into a fresh generation.
    pub fn recover_with_rules(
        dir: impl Into<Dir>,
        catalog: &[(String, LinkageRule)],
        source_schema: &Arc<Schema>,
        durability: DurabilityOptions,
    ) -> Result<(DurableService, RecoveryReport), RecoveryError> {
        let dir = dir.into();
        let scan = scan_dir(&dir)?;
        if scan.checkpoints.is_empty() {
            return Err(RecoveryError::NoCheckpoint(dir.path().to_path_buf()));
        }
        let mut fallback_generations = 0u64;
        let mut newest_failure: Option<(u64, String)> = None;
        for &generation in scan.checkpoints.iter().rev() {
            let snapshot = match dir.storage().read(&checkpoint_path(dir.path(), generation)) {
                Ok(bytes) => bytes,
                Err(err) => {
                    newest_failure.get_or_insert((generation, err.to_string()));
                    fallback_generations += 1;
                    continue;
                }
            };
            let writer =
                match ServiceWriter::restore_with_rules(catalog, source_schema, &snapshot[..]) {
                    Ok(writer) => writer,
                    Err(SnapshotError::Mismatch(why)) => {
                        // wrong rule / schema / format — a configuration
                        // error an older generation cannot fix
                        return Err(RecoveryError::Mismatch(why));
                    }
                    Err(err) => {
                        newest_failure.get_or_insert((generation, err.to_string()));
                        fallback_generations += 1;
                        continue;
                    }
                };
            let (service, mut report) = DurableService::replay_and_reopen(
                dir, writer, generation, catalog, &scan, durability,
            )?;
            report.fallback_generations = fallback_generations;
            return Ok((service, report));
        }
        let (generation, detail) =
            newest_failure.expect("at least one checkpoint attempt was made");
        Err(RecoveryError::CorruptCheckpoint { generation, detail })
    }

    /// Replays every log generation `>= checkpoint_generation` onto a
    /// restored writer, then re-checkpoints into a fresh generation.
    fn replay_and_reopen(
        dir: Dir,
        mut writer: ServiceWriter,
        checkpoint_generation: u64,
        catalog: &[(String, LinkageRule)],
        scan: &DirScan,
        durability: DurabilityOptions,
    ) -> Result<(DurableService, RecoveryReport), RecoveryError> {
        let tail: Vec<u64> = scan
            .wals
            .iter()
            .copied()
            .filter(|&g| g >= checkpoint_generation)
            .collect();
        if tail.first() != Some(&checkpoint_generation) {
            return Err(RecoveryError::CorruptLog {
                generation: checkpoint_generation,
                valid_epochs: 0,
                detail: "the checkpoint's log file is missing".into(),
            });
        }
        let mut seq: Option<u64> = None;
        let mut replayed_epochs = 0u64;
        let mut torn_tail_bytes = 0u64;
        for &generation in &tail {
            let bytes = dir.storage().read(&wal_path(dir.path(), generation))?;
            // each log generation is stamped with the registry fingerprint
            // at creation time; replayed manifest records change it, so the
            // expectation is recomputed from the writer per generation
            let expected_registry = writer.registry_hash();
            let contents: WalContents = match decode_wal(&bytes, expected_registry) {
                Ok(contents) => contents,
                // a log torn during creation never acknowledged anything
                Err(WalDamage::TornHeader) => continue,
                Err(WalDamage::Mismatch(why)) => return Err(RecoveryError::Mismatch(why)),
                Err(WalDamage::Corrupt {
                    valid_records,
                    error,
                }) => {
                    return Err(RecoveryError::CorruptLog {
                        generation,
                        valid_epochs: replayed_epochs + valid_records,
                        detail: error.to_string(),
                    })
                }
            };
            if contents.generation != generation {
                return Err(RecoveryError::CorruptLog {
                    generation,
                    valid_epochs: replayed_epochs,
                    detail: format!(
                        "log file claims generation {} (misplaced file?)",
                        contents.generation
                    ),
                });
            }
            if let Some(expected) = seq {
                if contents.base_seq != expected {
                    return Err(RecoveryError::CorruptLog {
                        generation,
                        valid_epochs: replayed_epochs,
                        detail: format!(
                            "log starts at sequence {} where {expected} was expected \
                             (an intermediate log lost acknowledged epochs)",
                            contents.base_seq
                        ),
                    });
                }
            } else {
                seq = Some(contents.base_seq);
            }
            let schema = writer.store().schema().clone();
            for record in &contents.records {
                DurableService::apply_record(&mut writer, &schema, catalog, record)?;
                replayed_epochs += 1;
                seq = Some(record.seq);
            }
            torn_tail_bytes += contents.torn_tail_bytes;
        }
        writer.publish();

        let seq = seq.unwrap_or(0);
        let next = scan
            .max_generation()
            .expect("recover found at least one checkpoint")
            + 1;
        let wal = match write_generation(&dir, &writer, next, seq) {
            Ok(wal) => wal,
            Err(DurableError::Io(err)) => return Err(RecoveryError::Io(err)),
            Err(err) => return Err(RecoveryError::Io(io::Error::other(err.to_string()))),
        };
        retire(&dir, checkpoint_generation)?;
        Ok((
            DurableService {
                writer,
                wal,
                dir,
                generation: next,
                keep_from: checkpoint_generation,
                seq,
                durability,
                poisoned: false,
            },
            RecoveryReport {
                checkpoint_generation,
                replayed_epochs,
                torn_tail_bytes,
                fallback_generations: 0,
            },
        ))
    }

    fn apply_record(
        writer: &mut ServiceWriter,
        schema: &Arc<Schema>,
        catalog: &[(String, LinkageRule)],
        record: &crate::wal::WalRecord,
    ) -> Result<(), RecoveryError> {
        let fail = |detail: String| RecoveryError::Replay {
            seq: record.seq,
            detail,
        };
        let replay_entity = |entity: &crate::wal::EntityRecord| -> Result<Entity, RecoveryError> {
            if entity.values.len() != schema.len() {
                return Err(fail(format!(
                    "entity {} has {} value sets for a {}-property schema",
                    entity.id,
                    entity.values.len(),
                    schema.len()
                )));
            }
            Ok(Entity::new(
                entity.id.clone(),
                schema.clone(),
                entity.values.clone(),
            ))
        };
        match &record.op {
            WalOp::Insert(entity) => {
                let entity = replay_entity(entity)?;
                writer
                    .insert_unpublished(&entity)
                    .map_err(|err| fail(err.to_string()))?;
            }
            WalOp::Remove(id) => {
                if !writer.remove_unpublished(id) {
                    return Err(fail(format!("entity {id} is not in the store")));
                }
            }
            WalOp::Ingest(batch) => {
                for entity in batch {
                    let entity = replay_entity(entity)?;
                    writer
                        .insert_unpublished(&entity)
                        .map_err(|err| fail(err.to_string()))?;
                }
            }
            WalOp::Register { name, rule_hash } => {
                let rule = lookup_rule(catalog, name, *rule_hash).map_err(&fail)?;
                writer
                    .register_rule_unpublished(name, rule.clone())
                    .map_err(|err| fail(err.to_string()))?;
            }
            WalOp::Deregister(name) => {
                writer
                    .deregister_rule_unpublished(name)
                    .map_err(|err| fail(err.to_string()))?;
            }
            WalOp::Replace { name, rule_hash } => {
                let rule = lookup_rule(catalog, name, *rule_hash).map_err(&fail)?;
                writer
                    .replace_rule_unpublished(name, rule.clone())
                    .map_err(|err| fail(err.to_string()))?;
            }
        }
        Ok(())
    }
}

/// Resolves a logged registry operation against the recovery catalog.
/// Resolution is by **canonical hash**, not by catalog name: a `Replace`
/// re-binds a registry name to a different rule, so the same name can
/// legitimately refer to different rules at different points of the log.
fn lookup_rule<'a>(
    catalog: &'a [(String, LinkageRule)],
    name: &str,
    rule_hash: u64,
) -> Result<&'a LinkageRule, String> {
    catalog
        .iter()
        .find(|(_, rule)| rule.canonical_hash() == rule_hash)
        .map(|(_, rule)| rule)
        .ok_or_else(|| format!("no catalog rule matches the hash the log recorded for \"{name}\""))
}

/// The subdirectory holding one shard's checkpoint/log generation chain.
fn shard_dir(dir: &Dir, shard: usize) -> Dir {
    dir.child(&format!("shard-{shard:03}"))
}

/// The `shard-NNN` subdirectories present under a sharded root, ascending.
fn existing_shard_dirs(dir: &Dir) -> io::Result<Vec<usize>> {
    let mut shards = Vec::new();
    for name in list(dir)? {
        let index = name.strip_prefix("shard-");
        if let Some(index) = index.filter(|index| index.len() == 3) {
            shards.extend(index.parse::<usize>().ok());
        }
    }
    shards.sort_unstable();
    Ok(shards)
}

/// Crash-safe sharding — see the module docs.
impl ShardedService<DurableService> {
    /// Creates a sharded durable store over a materialised target source:
    /// entities are partitioned by the router and every shard writes its
    /// own checkpoint generation 0 and opens its own log.  Fails with
    /// [`DurableError::AlreadyDurable`] if the directory already holds
    /// shard state (use [`ShardedService::recover`]).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: impl Into<Dir>,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        shards: usize,
        options: ServiceOptions,
        durability: DurabilityOptions,
    ) -> Result<Self, DurableError> {
        let memory = ShardedService::build(rule, source_schema, target, shards, options)?;
        ShardedService::initialise_shards(dir.into(), memory, durability)
    }

    /// Creates an empty sharded durable store (populate through
    /// [`ShardedService::ingest`] / [`ShardedService::insert`]).
    pub fn create_empty(
        dir: impl Into<Dir>,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        shards: usize,
        options: ServiceOptions,
        durability: DurabilityOptions,
    ) -> Result<Self, DurableError> {
        let memory = ShardedService::empty(rule, source_schema, target_schema, shards, options);
        ShardedService::initialise_shards(dir.into(), memory, durability)
    }

    /// Writes every in-memory shard's checkpoint generation 0 and opens its
    /// log, in shard order, under a root that holds no shard state yet.
    fn initialise_shards(
        dir: Dir,
        memory: ShardedService,
        durability: DurabilityOptions,
    ) -> Result<Self, DurableError> {
        create_dir(&dir)?;
        if !existing_shard_dirs(&dir)?.is_empty() {
            return Err(DurableError::AlreadyDurable(dir.path().to_path_buf()));
        }
        memory.try_map_shards(|(index, writer)| {
            DurableService::initialise(shard_dir(&dir, index), writer, durability)
        })
    }

    /// Recovers every shard under `<dir>/shard-NNN/` in shard order,
    /// returning one [`RecoveryReport`] per shard.  The shard directories
    /// must be contiguous from `shard-000`; a gap means a shard's entire
    /// directory was lost, which (unlike a torn log tail) cannot be
    /// distinguished from acknowledged-data loss and is reported as a
    /// mismatch.  A failure inside one shard's chain surfaces that shard's
    /// [`RecoveryError`]; the other shards' directories are untouched and
    /// remain individually recoverable via [`DurableService::recover`] on
    /// their subdirectory.
    pub fn recover(
        dir: impl Into<Dir>,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        durability: DurabilityOptions,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        ShardedService::recover_with_rules(
            dir,
            &[(DEFAULT_RULE.to_string(), rule)],
            source_schema,
            durability,
        )
    }

    /// Multi-rule [`ShardedService::recover`]: each shard's checkpoint
    /// manifest and logged registry operations are resolved against
    /// `catalog`.  Registry operations go to shard 0 first, so a crash
    /// mid-broadcast can leave trailing shards behind shard 0 — recovery
    /// rolls them forward: shard 0's recovered registry is authoritative
    /// and every other shard is converged to it (missing rules registered,
    /// stale rules swapped, extras deregistered) before the service is
    /// handed back.
    pub fn recover_with_rules(
        dir: impl Into<Dir>,
        catalog: &[(String, LinkageRule)],
        source_schema: &Arc<Schema>,
        durability: DurabilityOptions,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        let dir = dir.into();
        let found = existing_shard_dirs(&dir)?;
        if found.is_empty() {
            return Err(RecoveryError::NoCheckpoint(dir.path().to_path_buf()));
        }
        for (expected, &actual) in found.iter().enumerate() {
            if actual != expected {
                return Err(RecoveryError::Mismatch(format!(
                    "shard directories are not contiguous: found shard-{actual:03} where \
                     shard-{expected:03} was expected"
                )));
            }
        }
        let mut shards = Vec::with_capacity(found.len());
        let mut reports = Vec::with_capacity(found.len());
        for index in 0..found.len() {
            let (service, report) = DurableService::recover_with_rules(
                shard_dir(&dir, index),
                catalog,
                source_schema,
                durability,
            )?;
            shards.push(service);
            reports.push(report);
        }
        ShardedService::converge_registries(&mut shards)?;
        Ok((
            ShardedService::assemble(ShardRouter::new(reports.len()), shards, 0),
            reports,
        ))
    }

    /// Rolls every shard's registry forward to shard 0's (the broadcast
    /// leader): registry operations are durably re-applied on the lagging
    /// shard, in the order register-missing → swap-stale → drop-extra so
    /// the registry is never emptied mid-convergence.
    fn converge_registries(shards: &mut [DurableService]) -> Result<(), RecoveryError> {
        let Some((leader, rest)) = shards.split_first_mut() else {
            return Ok(());
        };
        let target: Vec<(String, LinkageRule)> = leader
            .writer()
            .rule_names()
            .into_iter()
            .map(|name| {
                let rule = leader
                    .writer()
                    .named_rule(&name)
                    .expect("rule_names lists registered rules")
                    .clone();
                (name, rule)
            })
            .collect();
        let durable = |err: DurableError| RecoveryError::Replay {
            seq: 0,
            detail: format!("converging a lagging shard registry failed: {err}"),
        };
        for shard in rest {
            for (name, rule) in &target {
                if !shard.writer().has_rule(name) {
                    shard.register_rule(name, rule.clone()).map_err(durable)?;
                } else if shard
                    .writer()
                    .named_rule(name)
                    .expect("presence was just checked")
                    .canonical_hash()
                    != rule.canonical_hash()
                {
                    shard.replace_rule(name, rule.clone()).map_err(durable)?;
                }
            }
            let extras: Vec<String> = shard
                .writer()
                .rule_names()
                .into_iter()
                .filter(|name| !target.iter().any(|(kept, _)| kept == name))
                .collect();
            for name in extras {
                shard.deregister_rule(&name).map_err(durable)?;
            }
        }
        Ok(())
    }

    /// Total mutations acknowledged across all shards.
    pub fn seq(&self) -> u64 {
        self.shards().iter().map(DurableService::seq).sum()
    }

    /// Compacts every shard's log into a fresh checkpoint generation now
    /// (each shard also self-compacts past its own log budget).
    pub fn compact(&mut self) -> Result<(), DurableError> {
        for shard in 0..self.router().shards() {
            self.shard_mut(shard).compact()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::DataSourceBuilder;
    use linkdisc_rule::{compare, property, DistanceFunction};

    #[test]
    fn a_replay_error_names_the_failing_record() {
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "paris")])
            .unwrap()
            .build();
        let rule: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            1.0,
        )
        .into();
        let dir = std::env::temp_dir().join(format!("linkdisc-replay-seq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut service = DurableService::create(
            &dir,
            rule.clone(),
            target.schema(),
            &target,
            ServiceOptions::default(),
            DurabilityOptions::default(),
        )
        .unwrap();
        assert!(service.remove("b1").unwrap());
        assert!(service.remove("b2").unwrap());
        // a one-property schema, two value sets: decodes, cannot be applied
        let values = [vec!["rome".to_string()], vec!["extra".to_string()]];
        service.log(&Delta::Insert("b3", &values)).unwrap();
        let bad_seq = service.seq();
        assert_eq!(bad_seq, 3);
        drop(service);

        let err =
            DurableService::recover(&dir, rule, target.schema(), DurabilityOptions::default())
                .unwrap_err();
        assert!(
            matches!(err, RecoveryError::Replay { seq, .. } if seq == bad_seq),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
