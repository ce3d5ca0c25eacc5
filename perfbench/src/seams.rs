//! Timing wrappers around the program's public seams: `Storage` and
//! `Media` under the durable server, `Network` under the DCM. They are
//! installed only in the traced run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use moira_common::errors::MrResult;
use moira_db::journal::{Journal, JournalEntry};
use moira_db::storage::{Media, Storage};
use moira_db::Database;
use moira_dcm::net::{NetFault, Network};
use parking_lot::Mutex;

use crate::stats::Samples;

/// What the storage seams saw.
#[derive(Default)]
pub struct StorageStats {
    pub append_ns: Samples,
    /// `maybe_flush` calls that fsynced.
    pub flush_ns: Samples,
    pub snapshot_ns: Samples,
    pub fsync_ns: Samples,
    /// Bytes handed to the media (appends and new files).
    pub media_bytes: u64,
}

pub type SharedStorageStats = Arc<Mutex<StorageStats>>;

pub struct TimedStorage {
    pub inner: Box<dyn Storage>,
    pub stats: SharedStorageStats,
}

impl Storage for TimedStorage {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn append(&mut self, entry: &JournalEntry, now: i64) -> MrResult<()> {
        let t = Instant::now();
        let r = self.inner.append(entry, now);
        self.stats
            .lock()
            .append_ns
            .push(t.elapsed().as_nanos() as f64);
        r
    }

    fn maybe_flush(&mut self, now: i64) -> MrResult<bool> {
        let t = Instant::now();
        let r = self.inner.maybe_flush(now);
        if matches!(r, Ok(true)) {
            self.stats
                .lock()
                .flush_ns
                .push(t.elapsed().as_nanos() as f64);
        }
        r
    }

    fn flush(&mut self) -> MrResult<()> {
        self.inner.flush()
    }

    fn wants_snapshot(&self) -> bool {
        self.inner.wants_snapshot()
    }

    fn snapshot(&mut self, db: &Database, journal: &Journal) -> MrResult<()> {
        let t = Instant::now();
        let r = self.inner.snapshot(db, journal);
        self.stats
            .lock()
            .snapshot_ns
            .push(t.elapsed().as_nanos() as f64);
        r
    }

    fn pending_entries(&self) -> usize {
        self.inner.pending_entries()
    }
}

pub struct TimedMedia<M: Media> {
    pub inner: M,
    pub stats: SharedStorageStats,
}

impl<M: Media> Media for TimedMedia<M> {
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        self.stats.lock().media_bytes += bytes.len() as u64;
        self.inner.append(file, bytes)
    }

    fn fsync(&mut self, file: &str) -> MrResult<()> {
        let t = Instant::now();
        let r = self.inner.fsync(file);
        self.stats
            .lock()
            .fsync_ns
            .push(t.elapsed().as_nanos() as f64);
        r
    }

    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
        self.inner.read(file)
    }

    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        self.stats.lock().media_bytes += bytes.len() as u64;
        self.inner.write_new(file, bytes)
    }

    fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
        self.inner.rename(from, to)
    }

    fn fsync_dir(&mut self) -> MrResult<()> {
        let t = Instant::now();
        let r = self.inner.fsync_dir();
        self.stats
            .lock()
            .fsync_ns
            .push(t.elapsed().as_nanos() as f64);
        r
    }

    fn remove(&mut self, file: &str) -> MrResult<()> {
        self.inner.remove(file)
    }

    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
        self.inner.truncate(file, len)
    }
}

/// Counts update-protocol connections and bytes crossing the DCM network.
pub struct CountingNet {
    pub inner: Arc<dyn Network>,
    pub connects: AtomicU64,
    pub transmits: AtomicU64,
    pub bytes: AtomicU64,
}

impl CountingNet {
    pub fn new(inner: Arc<dyn Network>) -> CountingNet {
        CountingNet {
            inner,
            connects: AtomicU64::new(0),
            transmits: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(connects, transmits, bytes)` so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.connects.load(Ordering::Relaxed),
            self.transmits.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl Network for CountingNet {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        self.connects.fetch_add(1, Ordering::Relaxed);
        self.inner.connect(host)
    }

    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault> {
        self.transmits.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.inner.transmit(host, len)
    }
}
