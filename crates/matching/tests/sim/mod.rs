//! `Sim`: the fault harness's deterministic in-memory [`Storage`].
//!
//! It counts the operations it runs by kind, and can be scheduled to fail
//! the n-th operation of a kind, or to tear the n-th append after k bytes.
//! A fault models a crash at that instant: the faulted operation and every
//! later one fail, until the harness calls [`Sim::crash`].
//!
//! The crash model: a file's bytes survive up to its last `sync`, and a
//! directory entry (a create, rename or remove) survives once its parent
//! directory was synced; an entry under a lost directory is lost with it.
//! A crash either applies that model ([`Crash::LoseUnsynced`], a power
//! loss) or keeps every byte and entry written ([`Crash::KeepUnsynced`], a
//! killed process whose kernel flushes its page cache).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use linkdisc_matching::Storage;

/// The kinds of operation, one per [`Storage`] method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    CreateNew,
    Append,
    Sync,
    Rename,
    SyncDir,
    CreateDir,
    Read,
    List,
    Remove,
}

/// What a scheduled operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fails without effect.
    Fail,
    /// An append writes only its first `n` bytes, then fails; any other
    /// operation fails without effect.
    Tear(usize),
}

/// What a crash keeps of the bytes and entries that were never synced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    LoseUnsynced,
    KeepUnsynced,
}

pub const CRASHES: [Crash; 2] = [Crash::LoseUnsynced, Crash::KeepUnsynced];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Dir,
    /// An index into `State::files`.
    File(usize),
}

#[derive(Debug, Clone)]
struct State {
    /// The namespace every operation sees.
    live: BTreeMap<PathBuf, Entry>,
    /// The namespace a power loss leaves: each directory's entries as of
    /// its last sync.
    durable: BTreeMap<PathBuf, Entry>,
    /// Each file's bytes, and how many of them are synced.
    files: Vec<(Vec<u8>, usize)>,
    /// Operations run since the start or the last crash, by kind.
    counts: BTreeMap<Kind, usize>,
    schedule: Option<(Kind, usize, Fault)>,
    fired: bool,
}

fn crashed() -> io::Error {
    io::Error::other("simulated crash")
}

fn missing(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl State {
    /// Counts one `op`.  `Err` when it fails; `Ok(Some(n))` when it is an
    /// append torn after `n` bytes.
    fn tick(&mut self, op: Kind) -> io::Result<Option<usize>> {
        if self.fired {
            return Err(crashed());
        }
        let count = self.counts.entry(op).or_default();
        let nth = *count;
        *count += 1;
        match self.schedule {
            Some((kind, at, fault)) if kind == op && at == nth => {
                self.fired = true;
                match fault {
                    Fault::Tear(n) if op == Kind::Append => Ok(Some(n)),
                    _ => Err(crashed()),
                }
            }
            _ => Ok(None),
        }
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.live.get(path) == Some(&Entry::Dir)
    }

    fn file(&self, path: &Path) -> io::Result<usize> {
        match self.live.get(path) {
            Some(&Entry::File(file)) => Ok(file),
            _ => Err(missing(path)),
        }
    }

    /// Fails unless `path`'s parent directory exists.
    fn parent(&self, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(parent) if self.is_dir(parent) => Ok(()),
            _ => Err(missing(path)),
        }
    }
}

/// A simulated file system holding one directory, `/`.
pub struct Sim(Mutex<State>);

impl Sim {
    pub fn new() -> Sim {
        let root = BTreeMap::from([(PathBuf::from("/"), Entry::Dir)]);
        Sim(Mutex::new(State {
            live: root.clone(),
            durable: root,
            files: Vec::new(),
            counts: BTreeMap::new(),
            schedule: None,
            fired: false,
        }))
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of this file system, schedule and counts included.
    pub fn fork(&self) -> Sim {
        Sim(Mutex::new(self.state().clone()))
    }

    /// Schedules `fault` for the `nth` (0-based) operation of `kind`,
    /// counted since the start or the last crash.
    pub fn schedule(&self, kind: Kind, nth: usize, fault: Fault) {
        self.state().schedule = Some((kind, nth, fault));
    }

    /// Whether the scheduled fault has happened.
    pub fn fired(&self) -> bool {
        self.state().fired
    }

    /// Operations run since the start or the last crash, by kind.
    pub fn counts(&self) -> Vec<(Kind, usize)> {
        self.state()
            .counts
            .iter()
            .map(|(&op, &n)| (op, n))
            .collect()
    }

    /// Crashes: applies `how` to what was never synced, then clears the
    /// schedule and the counts.
    pub fn crash(&self, how: Crash) {
        let mut state = self.state();
        let state = &mut *state;
        match how {
            Crash::LoseUnsynced => {
                let durable = &state.durable;
                let reachable = |path: &Path| {
                    let mut ancestors = path.ancestors().skip(1);
                    ancestors.all(|dir| durable.get(dir) == Some(&Entry::Dir))
                };
                state.live = durable
                    .iter()
                    .filter(|(path, _)| reachable(path))
                    .map(|(path, &entry)| (path.clone(), entry))
                    .collect();
                state.durable = state.live.clone();
                for (bytes, synced) in &mut state.files {
                    bytes.truncate(*synced);
                }
            }
            Crash::KeepUnsynced => {
                state.durable = state.live.clone();
                for (bytes, synced) in &mut state.files {
                    *synced = bytes.len();
                }
            }
        }
        state.counts.clear();
        state.schedule = None;
        state.fired = false;
    }
}

impl Storage for Sim {
    fn create_new(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.tick(Kind::CreateNew)?;
        state.parent(path)?;
        if state.live.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                path.display().to_string(),
            ));
        }
        let file = state.files.len();
        state.files.push((Vec::new(), 0));
        state.live.insert(path.to_path_buf(), Entry::File(file));
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state();
        let torn = state.tick(Kind::Append)?;
        let file = state.file(path)?;
        let written = torn.unwrap_or(bytes.len()).min(bytes.len());
        state.files[file].0.extend_from_slice(&bytes[..written]);
        match torn {
            Some(_) => Err(crashed()),
            None => Ok(()),
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.tick(Kind::Sync)?;
        let file = state.file(path)?;
        let (bytes, synced) = &mut state.files[file];
        *synced = bytes.len();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.tick(Kind::Rename)?;
        let file = state.file(from)?;
        state.parent(to)?;
        state.live.remove(from);
        state.live.insert(to.to_path_buf(), Entry::File(file));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.tick(Kind::SyncDir)?;
        if !state.is_dir(dir) {
            return Err(missing(dir));
        }
        let state = &mut *state;
        let in_dir = |path: &PathBuf| path.parent() == Some(dir);
        state.durable.retain(|path, _| !in_dir(path));
        let entries = state.live.iter().filter(|(path, _)| in_dir(path));
        state
            .durable
            .extend(entries.map(|(path, &entry)| (path.clone(), entry)));
        Ok(())
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.tick(Kind::CreateDir)?;
        let missing_dirs: Vec<&Path> = dir
            .ancestors()
            .take_while(|ancestor| !state.is_dir(ancestor))
            .collect();
        for ancestor in missing_dirs.into_iter().rev() {
            if state.live.contains_key(ancestor) {
                return Err(io::Error::other(format!(
                    "{} is a file",
                    ancestor.display()
                )));
            }
            state.live.insert(ancestor.to_path_buf(), Entry::Dir);
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.state();
        state.tick(Kind::Read)?;
        let file = state.file(path)?;
        Ok(state.files[file].0.clone())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut state = self.state();
        state.tick(Kind::List)?;
        if !state.is_dir(dir) {
            return Err(missing(dir));
        }
        let names = state.live.keys().filter(|path| path.parent() == Some(dir));
        Ok(names
            .filter_map(|path| Some(path.file_name()?.to_str()?.to_string()))
            .collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.tick(Kind::Remove)?;
        state.file(path)?;
        state.live.remove(path);
        Ok(())
    }
}
