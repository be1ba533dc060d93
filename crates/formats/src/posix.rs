//! Plain binary files on a POSIX filesystem (`file://`).
//!
//! Writes go through a small in-process write-behind buffer. Every `pwrite`
//! pays a fixed system-call cost (about a microsecond in isolation, several
//! inside a busy process), and the active stager stages a random-update
//! workload as thousands of 8-byte ranges, so [`PosixObject`] records each
//! write in an offset-ordered map and
//! *drains* the map as a few large writes: before any other operation
//! (`read_at`, `len`, `set_len`, `flush`), when the map outgrows its cap,
//! and on drop. The bytes are visible through the writing handle at once,
//! reach the file at the next drain, and are durable only after `flush`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::object::DataObject;

/// Pending pieces at most this far apart are written as one extent.
const MAX_GAP: u64 = 16 << 10;
/// Largest extent a drain assembles; a write at least this large skips the
/// buffer.
const EXTENT_CAP: u64 = 1 << 20;
/// Pending payload bytes past which a write drains the buffer.
const MAX_PENDING_BYTES: usize = 1 << 20;
/// Pending pieces past which a write drains the buffer.
const MAX_PENDING_PIECES: usize = 64 << 10;

/// A [`DataObject`] backed by one file on disk.
#[derive(Debug)]
pub struct PosixObject {
    path: PathBuf,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    file: File,
    pending: Pending,
}

/// Writes not yet in the file: disjoint, non-touching pieces by offset.
#[derive(Debug, Default)]
struct Pending {
    pieces: BTreeMap<u64, Vec<u8>>,
    bytes: usize,
}

impl Pending {
    fn is_full(&self) -> bool {
        self.bytes > MAX_PENDING_BYTES || self.pieces.len() > MAX_PENDING_PIECES
    }

    /// Record `data` at `off` (non-empty), merging every piece it overlaps
    /// or touches into one; the newest bytes win.
    fn insert(&mut self, off: u64, data: &[u8]) {
        let end = off + data.len() as u64;
        let mut start = off;
        let mut buf = Vec::new();
        if let Some((&s, p)) = self.pieces.range(..=off).next_back() {
            if s + p.len() as u64 >= off {
                start = s;
                buf = self.take(s);
            }
        }
        let rel = (off - start) as usize;
        buf.resize(buf.len().max(rel + data.len()), 0);
        buf[rel..rel + data.len()].copy_from_slice(data);
        // Later pieces starting inside or right after the write: keep only
        // what they hold past its end.
        while let Some(&s) = self.pieces.range(off + 1..=end).next().map(|(s, _)| s) {
            let p = self.take(s);
            let covered = (start + buf.len() as u64 - s) as usize;
            if p.len() > covered {
                buf.extend_from_slice(&p[covered..]);
            }
        }
        self.bytes += buf.len();
        self.pieces.insert(start, buf);
    }

    fn take(&mut self, at: u64) -> Vec<u8> {
        let p = self.pieces.remove(&at).unwrap_or_default();
        self.bytes -= p.len();
        p
    }

    /// Write every pending piece to `file`, in offset order. Pieces within
    /// [`MAX_GAP`] of each other form one extent of at most [`EXTENT_CAP`]
    /// bytes: one `pread` of the span, the pieces patched in, one `pwrite`.
    /// A lone piece is one `pwrite`. On error nothing is dropped; a retry
    /// rewrites what already landed.
    fn drain(&mut self, file: &File) -> io::Result<()> {
        let mut span = Vec::new();
        let mut pieces = self.pieces.iter().peekable();
        while let Some((&start, first)) = pieces.next() {
            let mut end = start + first.len() as u64;
            let mut lone = true;
            while let Some(&(&s, p)) = pieces.peek() {
                let e = s + p.len() as u64;
                if s - end > MAX_GAP || e - start > EXTENT_CAP {
                    break;
                }
                end = e;
                lone = false;
                pieces.next();
            }
            if lone {
                file.write_all_at(first, start)?;
                continue;
            }
            span.clear();
            span.resize((end - start) as usize, 0);
            read_full(file, start, &mut span)?;
            for (&s, p) in self.pieces.range(start..end) {
                let rel = (s - start) as usize;
                span[rel..rel + p.len()].copy_from_slice(p);
            }
            file.write_all_at(&span, start)?;
        }
        self.pieces.clear();
        self.bytes = 0;
        Ok(())
    }
}

/// Read into `buf` at `off` until it is full or the file ends.
fn read_full(file: &File, off: u64, buf: &mut [u8]) -> io::Result<usize> {
    let mut done = 0;
    while done < buf.len() {
        match file.read_at(&mut buf[done..], off + done as u64) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

impl Inner {
    /// The file with every pending write landed in it.
    fn drained(&mut self) -> io::Result<&File> {
        self.pending.drain(&self.file)?;
        Ok(&self.file)
    }
}

impl PosixObject {
    /// Open or create the file at `path` for ranged read/write.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        Ok(Self::over(path, file))
    }

    /// Open an existing file read/write; errors if it does not exist.
    pub fn open_existing(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        Ok(Self::over(path, file))
    }

    fn over(path: PathBuf, file: File) -> Self {
        Self { path, inner: Mutex::new(Inner { file, pending: Pending::default() }) }
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl DataObject for PosixObject {
    fn len(&self) -> io::Result<u64> {
        Ok(self.inner.lock().drained()?.metadata()?.len())
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        read_full(self.inner.lock().drained()?, off, buf)
    }

    fn write_at(&self, off: u64, data: &[u8]) -> io::Result<()> {
        if off.checked_add(data.len() as u64).is_none() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "write ends past u64::MAX"));
        }
        let mut inner = self.inner.lock();
        if data.len() as u64 >= EXTENT_CAP {
            return inner.drained()?.write_all_at(data, off);
        }
        if !data.is_empty() {
            inner.pending.insert(off, data);
        }
        if inner.pending.is_full() {
            inner.drained()?;
        }
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.lock().drained()?.set_len(len)
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.lock().drained()?.sync_data()
    }
}

impl Drop for PosixObject {
    /// Land what is still pending (best effort: `drop` cannot report an
    /// error; call [`DataObject::flush`] first to see one).
    fn drop(&mut self) {
        let _ = self.inner.get_mut().drained();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::read_all;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("megammap-formats-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn ranged_io_round_trip() {
        let p = tmp("posix-roundtrip");
        let o = PosixObject::open(&p).unwrap();
        o.set_len(0).unwrap();
        o.write_at(10, b"hello").unwrap();
        assert_eq!(o.len().unwrap(), 15);
        let mut buf = [0u8; 5];
        assert_eq!(o.read_at(10, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let p = tmp("posix-reopen");
        {
            let o = PosixObject::open(&p).unwrap();
            o.set_len(0).unwrap();
            o.write_at(0, b"persist me").unwrap();
            o.flush().unwrap();
        }
        let o = PosixObject::open_existing(&p).unwrap();
        assert_eq!(read_all(&o).unwrap(), b"persist me");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn open_existing_fails_on_missing() {
        assert!(PosixObject::open_existing("/definitely/not/here.bin").is_err());
    }

    #[test]
    fn creates_parent_dirs() {
        let p = tmp("nested").join("a/b/c.bin");
        let o = PosixObject::open(&p).unwrap();
        o.write_at(0, b"x").unwrap();
        assert!(p.exists());
        std::fs::remove_dir_all(tmp("nested")).ok();
    }

    #[test]
    fn small_writes_reach_the_file_at_the_next_drain() {
        let p = tmp("posix-behind");
        let o = PosixObject::open(&p).unwrap();
        o.set_len(0).unwrap();
        o.write_at(0, &[1; 64]).unwrap();
        o.write_at(40_000, b"far").unwrap();
        assert!(std::fs::read(&p).unwrap().is_empty(), "still pending");
        let mut buf = [0u8; 3];
        assert_eq!(o.read_at(40_000, &mut buf).unwrap(), 3, "visible through the handle");
        assert_eq!(&buf, b"far");
        let disk = std::fs::read(&p).unwrap();
        assert_eq!(disk.len(), 40_003);
        assert_eq!((&disk[..64], &disk[64..40_000]), (&[1u8; 64][..], &[0u8; 39_936][..]));
        o.write_at(8, b"dropped").unwrap();
        drop(o);
        assert_eq!(&std::fs::read(&p).unwrap()[8..15], b"dropped", "drop drains");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn pieces_merge_when_they_overlap_or_touch() {
        let mut q = Pending::default();
        q.insert(10, b"cd");
        q.insert(14, b"gh");
        q.insert(20, b"z");
        q.insert(12, b"ef"); // touches both neighbours
        q.insert(8, b"abX"); // overlaps the front; newest bytes win
        assert_eq!(q.pieces.len(), 2);
        assert_eq!(q.pieces[&8], b"abXdefgh");
        assert_eq!(q.bytes, 9);
        q.insert(0, &[b'-'; 30]); // covers everything
        assert_eq!(q.pieces.len(), 1);
        assert_eq!(q.bytes, 30);
    }

    #[test]
    fn extents_split_at_the_gap_and_the_cap() {
        let p = tmp("posix-extents");
        let o = PosixObject::open(&p).unwrap();
        o.set_len(0).unwrap();
        let mut model = vec![0u8; 4 << 20];
        // Every 8 KiB across 3 MiB (extents capped at 1 MiB), then one
        // piece a gap too wide to bridge.
        let mut put = |off: usize, data: &[u8]| {
            o.write_at(off as u64, data).unwrap();
            model[off..off + data.len()].copy_from_slice(data);
        };
        for k in 0..(3 << 20) / 8192 {
            put(k * 8192 + 3, &(k as u64).to_le_bytes());
        }
        put(100, &[7; 5000]);
        put((3 << 20) + 65_536, b"far");
        o.flush().unwrap();
        let disk = std::fs::read(&p).unwrap();
        assert_eq!(disk.len(), (3 << 20) + 65_539);
        assert_eq!(disk, model[..disk.len()]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn the_buffer_drains_at_its_piece_cap() {
        let p = tmp("posix-cap");
        let o = PosixObject::open(&p).unwrap();
        o.set_len(0).unwrap();
        for k in 0..=MAX_PENDING_PIECES as u64 {
            o.write_at(2 * k, &[1]).unwrap();
        }
        assert_eq!(std::fs::read(&p).unwrap().len(), 2 * MAX_PENDING_PIECES + 1);
        std::fs::remove_file(&p).ok();
    }
}
