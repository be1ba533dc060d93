//! The write-ahead intent journal: crash-consistent flushes.
//!
//! Every nonvolatile vector opened under `RuntimeConfig::journal` gets a
//! companion `{key}.wal` object (modeled as a separately-attached log
//! device, so backend outages in the fault plan never take the journal
//! down with the data). Before the stager writes a byte range to the data
//! object it appends an *intent record* carrying the same payload; after a
//! successful full flush the journal is truncated. A crash anywhere in
//! between leaves either (a) intents the data object already has — replay
//! is idempotent — or (b) intents the data object is missing — replay
//! installs them. Either way, replaying the journal on restart (or after a
//! node crash wiped the scache) reconstructs exactly the state an
//! uninterrupted flush would have produced.
//!
//! # Record format
//!
//! ```text
//! [magic u32 LE][off u64 LE][len u32 LE][payload len bytes][check u64 LE]
//! ```
//!
//! `check` is a SplitMix64-chained checksum over `off`, `len` and the
//! payload. Replay walks records sequentially and stops at the first
//! truncated or corrupt one — a torn tail from a crash mid-append loses
//! only the unacknowledged record, never a previously acknowledged one.

use std::sync::Arc;

use megammap_formats::{Backends, DataObject, DataUrl};
use megammap_sim::fault::mix64;
use parking_lot::Mutex;

use crate::error::{MmError, Result};

/// Record magic: "MMWJ" little-endian.
const MAGIC: u32 = 0x4A57_4D4D;
/// Fixed bytes around the payload: magic + off + len + check.
const HEADER: usize = 4 + 8 + 4;
const TRAILER: usize = 8;

/// Little-endian word from up to 8 bytes (short reads zero-pad). Manual
/// assembly keeps the fault path free of slice-copy and `try_into` panics.
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = 0u64;
    for (i, &b) in bytes.iter().take(8).enumerate() {
        w |= (b as u64) << (8 * i);
    }
    w
}

fn checksum(off: u64, payload: &[u8]) -> u64 {
    let mut h = mix64(off ^ (payload.len() as u64).rotate_left(32));
    for chunk in payload.chunks(8) {
        h = mix64(h ^ le_word(chunk));
    }
    h
}

/// Summary of a journal replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Intent records applied to the data object.
    pub records: u64,
    /// Payload bytes written.
    pub bytes: u64,
    /// Whether a torn (truncated or corrupt) tail record was discarded.
    pub torn_tail: bool,
}

/// A per-vector write-ahead intent journal.
pub struct IntentJournal {
    wal: Arc<dyn DataObject>,
    /// Append cursor; serializes concurrent appends from writer tasks.
    end: Mutex<u64>,
}

impl IntentJournal {
    /// The journal key for a vector key.
    ///
    /// h5 keys park the dataset name after the last `:`; the WAL gets its
    /// own *container file* (`path.wal`), not a sibling dataset — every
    /// `Backends::open` of an h5 URL builds an independent view of the
    /// file, and two views flushing one container stomp each other's
    /// extents.
    pub fn wal_key(key: &str) -> String {
        if let Ok(url) = DataUrl::parse(key) {
            if url.scheme == megammap_formats::Scheme::Hdf5 {
                let dset = url.params.unwrap_or_else(|| "data".to_string());
                return format!("hdf5://{}.wal:{dset}.wal", url.path);
            }
        }
        format!("{key}.wal")
    }

    /// Open (or create) the journal companion of vector `key`.
    pub fn open(backends: &Backends, key: &str) -> Result<Self> {
        let url = DataUrl::parse(&Self::wal_key(key))?;
        let wal: Arc<dyn DataObject> = Arc::from(backends.open(&url).map_err(MmError::Io)?);
        let end = wal.len().map_err(MmError::Io)?;
        Ok(Self { wal, end: Mutex::new(end) })
    }

    /// A journal over a caller-supplied log object (tests observe the log's
    /// I/O order through a wrapper).
    #[cfg(test)]
    pub(crate) fn over(wal: Arc<dyn DataObject>) -> Self {
        Self { wal, end: Mutex::new(0) }
    }

    /// Append one intent: `payload` is about to be written at byte offset
    /// `off` of the data object. Returns the record's size in the log.
    pub fn append(&self, off: u64, payload: &[u8]) -> Result<u64> {
        let mut rec = Vec::with_capacity(HEADER + payload.len() + TRAILER);
        rec.extend_from_slice(&MAGIC.to_le_bytes());
        rec.extend_from_slice(&off.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        rec.extend_from_slice(&checksum(off, payload).to_le_bytes());
        let mut end = self.end.lock();
        self.wal.write_at(*end, &rec).map_err(MmError::Io)?;
        // An intent is only an intent once it is durable: backends with
        // deferred metadata (h5lite footers) must land it now, or a crash
        // leaves a torn container instead of a torn tail record.
        self.wal.flush().map_err(MmError::Io)?;
        *end += rec.len() as u64;
        Ok(rec.len() as u64)
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        *self.end.lock()
    }

    /// Whether the log holds no intents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply every intact intent record to `data`, in append order. Stops
    /// (without error) at a torn tail. Idempotent: records whose bytes the
    /// data object already holds simply rewrite them.
    pub fn replay(&self, data: &dyn DataObject) -> Result<ReplaySummary> {
        let end = *self.end.lock();
        let mut sum = ReplaySummary::default();
        let mut pos = 0u64;
        while pos < end {
            let mut head = [0u8; HEADER];
            if end - pos < HEADER as u64
                || self.wal.read_at(pos, &mut head).map_err(MmError::Io)? < HEADER
            {
                sum.torn_tail = true;
                break;
            }
            let magic = le_word(&head[0..4]) as u32;
            let off = le_word(&head[4..12]);
            let len = le_word(&head[12..16]) as usize;
            if magic != MAGIC || end - pos < (HEADER + len + TRAILER) as u64 {
                sum.torn_tail = true;
                break;
            }
            let mut payload = vec![0u8; len];
            let mut check = [0u8; TRAILER];
            let got_p = self.wal.read_at(pos + HEADER as u64, &mut payload).map_err(MmError::Io)?;
            let got_c =
                self.wal.read_at(pos + (HEADER + len) as u64, &mut check).map_err(MmError::Io)?;
            if got_p < len || got_c < TRAILER || le_word(&check) != checksum(off, &payload) {
                sum.torn_tail = true;
                break;
            }
            data.write_at(off, &payload).map_err(MmError::Io)?;
            sum.records += 1;
            sum.bytes += len as u64;
            pos += (HEADER + len + TRAILER) as u64;
        }
        Ok(sum)
    }

    /// Drop every intent (the covered flush completed and the data object
    /// is durable).
    pub fn truncate(&self) -> Result<()> {
        let mut end = self.end.lock();
        self.wal.set_len(0).map_err(MmError::Io)?;
        self.wal.flush().map_err(MmError::Io)?;
        *end = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_pair() -> (Backends, IntentJournal, Box<dyn DataObject>) {
        let b = Backends::new();
        let j = IntentJournal::open(&b, "obj://bkt/data.bin").unwrap();
        let data = b.open(&DataUrl::parse("obj://bkt/data.bin").unwrap()).unwrap();
        (b, j, data)
    }

    #[test]
    fn append_replay_truncate_round_trip() {
        let (_b, j, data) = journal_pair();
        j.append(0, &[1u8; 100]).unwrap();
        j.append(4096, &[2u8; 50]).unwrap();
        assert!(!j.is_empty());
        let sum = j.replay(data.as_ref()).unwrap();
        assert_eq!(sum, ReplaySummary { records: 2, bytes: 150, torn_tail: false });
        let mut buf = vec![0u8; 50];
        data.read_at(4096, &mut buf).unwrap();
        assert_eq!(buf, vec![2u8; 50]);
        let mut head = vec![0u8; 100];
        data.read_at(0, &mut head).unwrap();
        assert_eq!(head, vec![1u8; 100]);
        j.truncate().unwrap();
        assert!(j.is_empty());
        assert_eq!(j.replay(data.as_ref()).unwrap().records, 0);
    }

    #[test]
    fn replay_survives_runtime_restart() {
        // A second IntentJournal over the same backends (the restart model)
        // sees the intents the first one wrote.
        let b = Backends::new();
        let j1 = IntentJournal::open(&b, "obj://bkt/x").unwrap();
        j1.append(8, b"persist me").unwrap();
        drop(j1);
        let j2 = IntentJournal::open(&b, "obj://bkt/x").unwrap();
        assert_eq!(j2.len(), (HEADER + 10 + TRAILER) as u64);
        let data = b.open(&DataUrl::parse("obj://bkt/x").unwrap()).unwrap();
        let sum = j2.replay(data.as_ref()).unwrap();
        assert_eq!(sum.records, 1);
        let mut buf = vec![0u8; 10];
        data.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let (b, j, data) = journal_pair();
        j.append(0, &[7u8; 64]).unwrap();
        j.append(64, &[8u8; 64]).unwrap();
        // Corrupt the second record's checksum in place.
        let wal = b
            .open(&DataUrl::parse(&IntentJournal::wal_key("obj://bkt/data.bin")).unwrap())
            .unwrap();
        let second = (HEADER + 64 + TRAILER) as u64;
        wal.write_at(second + (HEADER + 64) as u64, &[0xFF; TRAILER]).unwrap();
        let sum = j.replay(data.as_ref()).unwrap();
        assert_eq!(sum.records, 1, "only the intact prefix replays");
        assert!(sum.torn_tail);
        // Truncated mid-header: same containment.
        let j2 = IntentJournal::open(&b, "obj://bkt/t2").unwrap();
        j2.append(0, &[1u8; 16]).unwrap();
        let wal2 =
            b.open(&DataUrl::parse(&IntentJournal::wal_key("obj://bkt/t2")).unwrap()).unwrap();
        wal2.set_len(5).unwrap();
        let j3 = IntentJournal::open(&b, "obj://bkt/t2").unwrap();
        let d2 = b.open(&DataUrl::parse("obj://bkt/t2").unwrap()).unwrap();
        let sum = j3.replay(d2.as_ref()).unwrap();
        assert_eq!(sum.records, 0);
        assert!(sum.torn_tail);
    }
}
