//! Where a durable service keeps its files.
//!
//! [`Storage`] is the nine file-system operations the durability layer
//! performs, by path; [`Disk`] runs them on `std::fs` and is the only code
//! in this crate that names it.  A [`Dir`] is a directory path together
//! with the storage it lives on: every durable constructor takes
//! `impl Into<Dir>`, and a plain path converts to a `Dir` on `Disk`, so a
//! test can hand the service another storage (an in-memory one that
//! schedules faults and simulates crashes) without a build flag or a
//! second set of constructors.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The file operations of the durability layer.  Files are created empty
/// and only ever appended to; durability is explicit: appended bytes
/// survive a crash once [`Storage::sync`] returns, and a create, rename or
/// remove once [`Storage::sync_dir`] of its directory returns.
pub trait Storage: Send + Sync {
    /// Creates an empty file; fails if `path` exists.
    fn create_new(&self, path: &Path) -> io::Result<()>;
    /// Appends `bytes` to an existing file.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Makes the bytes appended to a file durable.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Renames a file, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Makes the creates, renames and removes of entries in `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates a directory and any missing parent; succeeds if it exists.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;
    /// The whole content of a file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The names of the entries in a directory, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The local file system.
#[derive(Debug)]
pub struct Disk;

fn open_for_append(path: &Path) -> io::Result<File> {
    OpenOptions::new().append(true).open(path)
}

impl Storage for Disk {
    fn create_new(&self, path: &Path) -> io::Result<()> {
        OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map(drop)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        open_for_append(path)?.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        open_for_append(path)?.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            names.extend(entry?.file_name().into_string().ok());
        }
        Ok(names)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// A directory path and the storage it lives on.
pub struct Dir {
    path: PathBuf,
    storage: Arc<dyn Storage>,
}

impl Dir {
    /// `path` on `storage`.
    pub fn new(path: impl Into<PathBuf>, storage: Arc<dyn Storage>) -> Dir {
        Dir {
            path: path.into(),
            storage,
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    pub(crate) fn storage(&self) -> &dyn Storage {
        &*self.storage
    }

    /// The subdirectory `name`, on the same storage.
    pub(crate) fn child(&self, name: &str) -> Dir {
        Dir::new(self.path.join(name), self.storage.clone())
    }
}

/// A plain path is a directory on [`Disk`].
impl<P: AsRef<Path>> From<P> for Dir {
    fn from(path: P) -> Dir {
        Dir::new(path.as_ref(), Arc::new(Disk))
    }
}

impl std::fmt::Debug for Dir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.path.fmt(f)
    }
}
