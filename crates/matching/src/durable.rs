//! Crash-safe serving: a [`DurableService`] wraps a [`ServiceWriter`] so
//! that every acknowledged mutation survives a crash, and restart costs
//! O(churn since the last checkpoint), not O(store).
//!
//! # Write path
//!
//! Every mutation, entity or registry, is one `Delta` through one commit:
//!
//! 1. **check** — the writer's `check` refuses a duplicate id, a taken or
//!    unknown rule name or the last rule, or finds nothing to do (an absent
//!    id, an empty batch), before anything is logged or changed;
//! 2. **log** — one record is appended to the write-ahead log
//!    ([`crate::wal`]) and `fsync`ed, one sync per epoch (a record over the
//!    log's 1 GiB bound is refused here, unlogged);
//! 3. **apply** the delta to the in-memory writer, and **publish** the epoch
//!    readers see.
//!
//! [`ServiceWriter`] runs the same check, apply and publish without the
//! log; recovery turns each record back into the same delta and runs the
//! same check and apply.  A crash before step 2 completes loses only the
//! unacknowledged call; a crash after it loses nothing.  If a log write
//! fails, the service **poisons** itself (every later call errors with
//! [`DurableError::Poisoned`]): the in-memory state may be ahead of or
//! behind the log, and only [`DurableService::recover`] can re-establish
//! the invariant.
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
//! to a rebuild and replay runs the very check and apply the original
//! writer ran.  Unreadable
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
use crate::wal::{decode_wal, Delta, Refused, WalContents, WalDamage, WalOp, WalRecord, WalWriter};

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
    /// The mutation's log record, `bytes` of payload, exceeds the log's
    /// 1 GiB record bound — the service state and the log are untouched.
    RecordTooLarge { bytes: u64 },
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
            DurableError::RecordTooLarge { bytes } => {
                write!(f, "a {bytes}-byte log record exceeds the 1 GiB bound")
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

impl From<Refused> for DurableError {
    fn from(refused: Refused) -> Self {
        match refused {
            Refused::Entity(err) => DurableError::Entity(err),
            Refused::Registry(err) => DurableError::Registry(err),
        }
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
) -> io::Result<Log> {
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

    /// The durable write path (see the module docs): check, log and fsync,
    /// apply, publish, then compact past the log budget.  `Ok(None)` when
    /// the delta has nothing to do, which logs nothing.
    pub(crate) fn commit(&mut self, delta: Delta<'_>) -> Result<Option<u32>, DurableError> {
        self.guard()?;
        if !self.writer.check(&delta)? {
            return Ok(None);
        }
        self.log(&delta)?;
        let position = self.writer.apply(delta);
        self.writer.publish();
        self.maybe_compact()?;
        Ok(Some(position))
    }

    /// Appends one delta's record to the log and fsyncs it — the one
    /// function that writes a record.  A record over the log's bound is
    /// refused unwritten; a failed append or fsync poisons the service.
    fn log(&mut self, delta: &Delta<'_>) -> Result<(), DurableError> {
        let schema = self.writer.store().schema().clone();
        let (wal, disk) = (&mut self.wal, self.dir.storage());
        let record = wal
            .encoder
            .encode(self.seq + 1, delta, &schema)
            .map_err(|bytes| DurableError::RecordTooLarge {
                bytes: bytes as u64,
            })?;
        self.seq += 1;
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
        Ok(self.commit(Delta::Insert(entity))?.unwrap_or_default())
    }

    /// Removes a target entity durably.  Returns `Ok(false)` (logging
    /// nothing) when the id is not served.
    pub fn remove(&mut self, id: &str) -> Result<bool, DurableError> {
        Ok(self.commit(Delta::Remove(id))?.is_some())
    }

    /// Ingests a batch durably as **one atomic epoch**: one log record, one
    /// fsync, one publication — or, on a duplicate id anywhere, nothing
    /// logged and nothing applied (an empty batch logs nothing either).
    pub fn ingest(&mut self, entities: &[Entity]) -> Result<usize, DurableError> {
        let batch: Vec<&Entity> = entities.iter().collect();
        self.commit(Delta::Ingest(&batch))?;
        Ok(entities.len())
    }

    /// Registers a rule durably: the manifest record is logged and fsynced
    /// *before* the registry changes and the epoch publishes, so a crash at
    /// any instant recovers to either the pre- or post-registration rule
    /// set — never a torn registry.  See
    /// [`ServiceWriter::register_rule`] for the in-memory semantics (warm
    /// registration builds only the missing pool leaves).
    pub fn register_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), DurableError> {
        self.commit(Delta::Register(name, &rule)).map(drop)
    }

    /// Deregisters a rule durably (logged and fsynced before the registry
    /// changes) — see [`ServiceWriter::deregister_rule`].
    pub fn deregister_rule(&mut self, name: &str) -> Result<(), DurableError> {
        self.commit(Delta::Deregister(name)).map(drop)
    }

    /// Hot-swaps a rule durably (logged and fsynced before the swap) — see
    /// [`ServiceWriter::replace_rule`].
    pub fn replace_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), DurableError> {
        self.commit(Delta::Replace(name, &rule)).map(drop)
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
                return Err(DurableError::Io(err));
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
            for record in contents.records {
                seq = Some(record.seq);
                replay(&mut writer, catalog, record)?;
                replayed_epochs += 1;
            }
            torn_tail_bytes += contents.torn_tail_bytes;
        }
        writer.publish();

        let seq = seq.unwrap_or(0);
        let next = scan
            .max_generation()
            .expect("recover found at least one checkpoint")
            + 1;
        let wal = write_generation(&dir, &writer, next, seq)?;
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
}

/// Replays one decoded record: rebuilds the [`Delta`] it logged and runs
/// the live write path's check and apply on it (the caller publishes once
/// after the last record).  Anything that cannot be applied is
/// [`RecoveryError::Replay`]; an empty batch, which older builds logged,
/// replays as a no-op.
fn replay(
    writer: &mut ServiceWriter,
    catalog: &[(String, LinkageRule)],
    record: WalRecord,
) -> Result<(), RecoveryError> {
    let WalRecord { seq, mut op } = record;
    let fail = |detail: String| RecoveryError::Replay { seq, detail };
    let schema = writer.store().schema().clone();
    let entity = |entity: crate::wal::EntityRecord| {
        if entity.values.len() != schema.len() {
            return Err(fail(format!(
                "entity {} has {} value sets for a {}-property schema",
                entity.id,
                entity.values.len(),
                schema.len()
            )));
        }
        Ok(Entity::new(entity.id, schema.clone(), entity.values))
    };
    let entities: Vec<Entity> = match &mut op {
        WalOp::Insert(one) => vec![entity(std::mem::take(one))?],
        WalOp::Ingest(batch) => std::mem::take(batch)
            .into_iter()
            .map(entity)
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    let batch: Vec<&Entity> = entities.iter().collect();
    // a logged rule is resolved by canonical hash, not by name: a `Replace`
    // re-binds a name, so one name can mean different rules along the log
    let rule = |name: &str, hash: u64| {
        let mut rules = catalog.iter().map(|(_, rule)| rule);
        let found = rules.find(|rule| rule.canonical_hash() == hash);
        found.ok_or_else(|| fail(format!("no catalog rule has the hash logged for {name:?}")))
    };
    let delta = match &op {
        WalOp::Insert(_) => Delta::Insert(batch[0]),
        WalOp::Remove(id) => Delta::Remove(id),
        WalOp::Ingest(_) => Delta::Ingest(&batch),
        WalOp::Register { name, rule_hash } => Delta::Register(name, rule(name, *rule_hash)?),
        WalOp::Deregister(name) => Delta::Deregister(name),
        WalOp::Replace { name, rule_hash } => Delta::Replace(name, rule(name, *rule_hash)?),
    };
    match writer.check(&delta) {
        Ok(true) => {
            writer.apply(delta);
            Ok(())
        }
        Ok(false) if matches!(delta, Delta::Ingest(_)) => Ok(()),
        Ok(false) => Err(fail(
            "the record removes an entity that is not served".into(),
        )),
        Err(refused) => Err(fail(DurableError::from(refused).to_string())),
    }
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
        let target = leader.writer().registered_rules();
        let durable = |err: DurableError| RecoveryError::Replay {
            seq: 0,
            detail: format!("converging a lagging shard registry failed: {err}"),
        };
        for shard in rest {
            for registered in target {
                let (name, rule) = (registered.name.as_ref(), registered.rule.as_ref());
                let delta = match shard.writer().named_rule(name) {
                    None => Delta::Register(name, rule),
                    Some(held) if held.canonical_hash() != rule.canonical_hash() => {
                        Delta::Replace(name, rule)
                    }
                    Some(_) => continue,
                };
                shard.commit(delta).map_err(durable)?;
            }
            let extras: Vec<String> = shard
                .writer()
                .rule_names()
                .into_iter()
                .filter(|name| !target.iter().any(|kept| kept.name.as_ref() == name))
                .collect();
            for name in extras {
                shard.commit(Delta::Deregister(&name)).map_err(durable)?;
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
    use crate::LinkService;
    use linkdisc_entity::DataSourceBuilder;
    use linkdisc_rule::{compare, property, DistanceFunction};

    fn target() -> DataSource {
        DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "paris")])
            .unwrap()
            .entity("b3", [("name", "rome")])
            .unwrap()
            .build()
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

    /// A fresh scratch directory for one test case.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("linkdisc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Appends `delta`'s record with values aligned to `schema`, skipping
    /// the check: a record that decodes but need not apply.
    fn forge(service: &mut DurableService, delta: &Delta<'_>, schema: &Schema) -> u64 {
        service.seq += 1;
        let record = service.wal.encoder.encode(service.seq, delta, schema);
        let storage = service.dir.storage();
        storage.append(&service.wal.path, record.unwrap()).unwrap();
        storage.sync(&service.wal.path).unwrap();
        service.seq
    }

    /// Records that decode but cannot be applied, one per op, each after a
    /// valid one: recovery fails as `Replay` naming that record, never
    /// panics.  An empty `Ingest` record, which older builds logged,
    /// replays as a no-op.
    #[test]
    fn a_replay_error_names_the_failing_record() {
        let target = target();
        let schema = target.schema().clone();
        let wide = Arc::new(Schema::new(["name", "extra"]));
        let served = target.entities()[0].clone();
        let fresh = Entity::new("b4", schema.clone(), vec![vec!["oslo".into()]]);
        let widened = Entity::new(
            "b4",
            wide.clone(),
            vec![vec!["oslo".into()], vec!["x".into()]],
        );
        let (known, unknown) = (rule(1.0), rule(3.0));
        let cases: [(&str, Delta<'_>, &Schema); 10] = [
            ("served insert", Delta::Insert(&served), &schema),
            ("wrong value-set count", Delta::Insert(&widened), &wide),
            (
                "repeat in a batch",
                Delta::Ingest(&[&fresh, &fresh]),
                &schema,
            ),
            (
                "served in a batch",
                Delta::Ingest(&[&fresh, &served]),
                &schema,
            ),
            ("absent remove", Delta::Remove("b9"), &schema),
            ("taken name", Delta::Register(DEFAULT_RULE, &known), &schema),
            (
                "hash not in catalog",
                Delta::Register("extra", &unknown),
                &schema,
            ),
            ("unknown deregister", Delta::Deregister("extra"), &schema),
            ("last rule", Delta::Deregister(DEFAULT_RULE), &schema),
            ("unknown replace", Delta::Replace("extra", &known), &schema),
        ];
        let dir = scratch_dir("replay-seq");
        for (case, delta, aligned_to) in cases {
            let mut service = DurableService::create(
                &dir,
                known.clone(),
                &schema,
                &target,
                ServiceOptions::default(),
                DurabilityOptions::default(),
            )
            .unwrap();
            assert!(service.remove("b2").unwrap());
            let bad_seq = forge(&mut service, &delta, aligned_to);
            assert_eq!(bad_seq, 2, "{case}");
            drop(service);
            let recovered = std::panic::catch_unwind(|| {
                DurableService::recover(&dir, known.clone(), &schema, DurabilityOptions::default())
            });
            match recovered {
                Ok(Err(RecoveryError::Replay { seq, .. })) => assert_eq!(seq, bad_seq, "{case}"),
                Ok(Err(err)) => panic!("{case}: expected Replay, got {err}"),
                Ok(Ok(_)) => panic!("{case}: recovered a record that cannot apply"),
                Err(_) => panic!("{case}: replay panicked"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }

        // a parent-style empty batch record recovers, as a no-op
        let mut service = DurableService::create(
            &dir,
            known.clone(),
            &schema,
            &target,
            ServiceOptions::default(),
            DurabilityOptions::default(),
        )
        .unwrap();
        forge(&mut service, &Delta::Ingest(&[]), &schema);
        assert!(service.remove("b2").unwrap());
        let expected = service.writer().encode_snapshot();
        drop(service);
        let (recovered, report) =
            DurableService::recover(&dir, known, &schema, DurabilityOptions::default()).unwrap();
        assert_eq!(report.replayed_epochs, 2);
        assert_eq!(recovered.seq(), 2);
        assert_eq!(recovered.writer().encode_snapshot(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One serving front under test, and what an ingest may change.
    enum Front {
        Memory(LinkService),
        Durable(DurableService),
        Sharded(ShardedService),
        ShardedDurable(ShardedService<DurableService>),
    }

    /// `(len, versions, seq, log bytes, snapshot bytes)`, per shard where a
    /// front has shards.
    type Observed = (usize, Vec<u64>, u64, Vec<u64>, Vec<Vec<u8>>);

    impl Front {
        fn ingest(&mut self, batch: &[Entity]) -> Result<usize, EntityError> {
            let entity = |err: DurableError| match err {
                DurableError::Entity(err) => err,
                other => panic!("unexpected durable failure: {other}"),
            };
            match self {
                Front::Memory(service) => service.ingest(batch),
                Front::Durable(service) => service.ingest(batch).map_err(entity),
                Front::Sharded(service) => service.ingest(batch),
                Front::ShardedDurable(service) => service.ingest(batch).map_err(entity),
            }
        }

        fn observe(&self) -> Observed {
            let writers: Vec<&ServiceWriter> = match self {
                Front::Memory(service) => vec![service.writer()],
                Front::Durable(service) => vec![service.writer()],
                Front::Sharded(service) => service.shards().iter().collect(),
                Front::ShardedDurable(service) => service
                    .shards()
                    .iter()
                    .map(DurableService::writer)
                    .collect(),
            };
            let logs: Vec<&DurableService> = match self {
                Front::Durable(service) => vec![service],
                Front::ShardedDurable(service) => service.shards().iter().collect(),
                Front::Memory(_) | Front::Sharded(_) => Vec::new(),
            };
            (
                writers.iter().map(|writer| writer.len()).sum(),
                writers.iter().map(|writer| writer.version()).collect(),
                logs.iter().map(|log| log.seq()).sum(),
                logs.iter().map(|log| log.log_bytes()).collect(),
                writers
                    .iter()
                    .map(|writer| writer.encode_snapshot())
                    .collect(),
            )
        }
    }

    /// `ingest` is all or nothing, and an empty batch a no-op, on every
    /// front: a batch that repeats an id or holds a served one fails with
    /// the same `DuplicateEntity` id everywhere and changes nothing — not
    /// the entity count, the versions, the log's sequence number or bytes,
    /// nor the snapshot bytes.
    #[test]
    fn every_front_refuses_a_failing_ingest_whole() {
        let target = target();
        let schema = target.schema();
        let more = |ids: &[&str]| -> Vec<Entity> {
            let set = |id: &str| vec![vec![format!("{id}-city")]];
            ids.iter()
                .map(|&id| Entity::new(id, schema.clone(), set(id)))
                .collect()
        };
        let dir = scratch_dir("ingest-parity");
        let options = ServiceOptions::default();
        let durability = DurabilityOptions::default();
        let fronts = vec![
            Front::Memory(LinkService::build(rule(1.0), schema, &target, options).unwrap()),
            Front::Durable(
                DurableService::create(
                    dir.join("one"),
                    rule(1.0),
                    schema,
                    &target,
                    options,
                    durability,
                )
                .unwrap(),
            ),
            Front::Sharded(ShardedService::build(rule(1.0), schema, &target, 1, options).unwrap()),
            Front::Sharded(ShardedService::build(rule(1.0), schema, &target, 3, options).unwrap()),
            Front::ShardedDurable(
                ShardedService::create(
                    dir.join("sharded-1"),
                    rule(1.0),
                    schema,
                    &target,
                    1,
                    options,
                    durability,
                )
                .unwrap(),
            ),
            Front::ShardedDurable(
                ShardedService::create(
                    dir.join("sharded-3"),
                    rule(1.0),
                    schema,
                    &target,
                    3,
                    options,
                    durability,
                )
                .unwrap(),
            ),
        ];
        let mut served = more(&["b5", "b1"]);
        served.insert(0, target.entities()[1].clone());
        let failing = [
            (more(&["b4", "b5", "b4"]), "b4"),
            (more(&["b4", "b1"]), "b1"),
            (served, "b2"),
        ];
        for (at, mut front) in fronts.into_iter().enumerate() {
            let before = front.observe();
            for (batch, id) in &failing {
                let err = front.ingest(batch).unwrap_err();
                assert_eq!(
                    err,
                    EntityError::DuplicateEntity(id.to_string()),
                    "front {at}"
                );
                assert_eq!(
                    front.observe(),
                    before,
                    "front {at}: a failed ingest changed state"
                );
            }
            assert_eq!(front.ingest(&[]).unwrap(), 0, "front {at}");
            assert_eq!(
                front.observe(),
                before,
                "front {at}: an empty ingest changed state"
            );
            assert_eq!(front.ingest(&more(&["b4", "b5"])).unwrap(), 2, "front {at}");
            assert_eq!(front.observe().0, 5, "front {at}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
