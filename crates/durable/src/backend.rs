//! The file-backed page store backend: one page file, positioned I/O.
//!
//! Pages live at `index * page_size` in `pages.db`, read with `pread` and
//! written with `pwrite`. The backend is a dumb byte store — allocation
//! state is the page store's business and is made recoverable by the WAL
//! (alloc/free records) plus the checkpoint's free map, not by anything in
//! this file.
//!
//! All disk effects are gated by the shared [`FaultInjector`]: once an
//! injected crash trips, every call fails, so nothing after the simulated
//! power loss reaches the file.

use crate::fault::{FaultInjector, FaultOutcome, FaultSite};
use crate::wal::io_err;
use blink_pagestore::{PageBackend, Result, StoreError};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A page file on disk.
pub struct FileBackend {
    file: File,
    page_size: usize,
    capacity: AtomicUsize,
    fault: Arc<FaultInjector>,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("page_size", &self.page_size)
            .field("capacity", &self.capacity.load(Ordering::Relaxed))
            .finish()
    }
}

/// Flips the planned bit (mod buffer size) in a successfully read page —
/// the [`FaultOutcome::FlipBit`] effect.
fn flip_bit(buf: &mut [u8], bit: u64) {
    let b = (bit as usize) % (buf.len() * 8);
    buf[b / 8] ^= 1 << (b % 8);
}

impl FileBackend {
    /// Opens (or creates) the page file at `path`. Existing length must be
    /// a whole number of pages.
    pub fn open(path: &Path, page_size: usize, fault: Arc<FaultInjector>) -> Result<FileBackend> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open page file", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("stat page file", e))?
            .len();
        if len % page_size as u64 != 0 {
            return Err(StoreError::corrupt("page file length not page-aligned"));
        }
        Ok(FileBackend {
            file,
            page_size,
            capacity: AtomicUsize::new((len / page_size as u64) as usize),
            fault,
        })
    }

    fn offset(&self, index: usize) -> u64 {
        index as u64 * self.page_size as u64
    }
}

impl PageBackend for FileBackend {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    fn grow(&self, new_cap: usize) -> Result<()> {
        if new_cap <= self.capacity() {
            return Ok(());
        }
        self.fault.check()?;
        // set_len zero-fills; sparse on any sane filesystem.
        self.file
            .set_len(new_cap as u64 * self.page_size as u64)
            .map_err(|e| io_err("grow page file", e))?;
        self.capacity.fetch_max(new_cap, Ordering::AcqRel);
        Ok(())
    }

    fn read(&self, index: usize, buf: &mut [u8]) -> Result<()> {
        self.fault.check()?;
        debug_assert_eq!(buf.len(), self.page_size);
        let flip = match self.fault.plan_outcome(FaultSite::PageRead) {
            FaultOutcome::Proceed => None,
            FaultOutcome::Fail(e) => return Err(e),
            FaultOutcome::FlipBit(bit) => Some(bit),
            FaultOutcome::Torn(_) => unreachable!("torn faults never target reads"),
        };
        self.file
            .read_exact_at(buf, self.offset(index))
            .map_err(|e| io_err("read page", e))?;
        if let Some(bit) = flip {
            flip_bit(buf, bit);
        }
        Ok(())
    }

    fn write(&self, index: usize, data: &[u8]) -> Result<()> {
        self.fault.check()?;
        debug_assert_eq!(data.len(), self.page_size);
        match self.fault.plan_outcome(FaultSite::PageWrite) {
            FaultOutcome::Proceed => {}
            FaultOutcome::Fail(e) => return Err(e),
            FaultOutcome::Torn(k) => {
                // Persist a prefix, then fail: the page image on disk is
                // now mangled exactly like a power loss mid-pwrite.
                let k = k.min(data.len());
                let _ = self.file.write_all_at(&data[..k], self.offset(index));
                return Err(StoreError::Io("injected torn page write".to_string()));
            }
            FaultOutcome::FlipBit(_) => unreachable!("bit flips never target writes"),
        }
        self.file
            .write_all_at(data, self.offset(index))
            .map_err(|e| io_err("write page", e))
    }

    fn sync(&self) -> Result<()> {
        self.fault.check()?;
        self.file
            .sync_data()
            .map_err(|e| io_err("sync page file", e))
    }

    /// A page file can tear and rot: the store stamps and verifies a CRC
    /// on every image and runs background write-back over it.
    fn persistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("blink-fb-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.db")
    }

    #[test]
    fn roundtrip_and_persistence() {
        let path = tmpfile("roundtrip");
        let fault = Arc::new(FaultInjector::new());
        {
            let b = FileBackend::open(&path, 64, Arc::clone(&fault)).unwrap();
            b.grow(4).unwrap();
            b.write(2, &[0xCD; 64]).unwrap();
            b.sync().unwrap();
        }
        let b = FileBackend::open(&path, 64, fault).unwrap();
        assert_eq!(b.capacity(), 4);
        let mut buf = [0u8; 64];
        b.read(2, &mut buf).unwrap();
        assert_eq!(buf, [0xCD; 64]);
        b.read(3, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64], "grown pages read as zeroes");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn tripped_fault_blocks_every_effect() {
        let path = tmpfile("fault");
        let fault = Arc::new(FaultInjector::new());
        let b = FileBackend::open(&path, 64, Arc::clone(&fault)).unwrap();
        b.grow(2).unwrap();
        b.write(0, &[1; 64]).unwrap();
        fault.crash_after_wal_records(0);
        assert!(fault.on_wal_record().is_err()); // trip
        assert!(b.write(1, &[2; 64]).is_err());
        assert!(b.grow(8).is_err());
        assert!(b.sync().is_err());
        let mut buf = [0u8; 64];
        assert!(
            b.read(0, &mut buf).is_err(),
            "a crashed store reads nothing"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn misaligned_file_is_rejected() {
        let path = tmpfile("misaligned");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(FileBackend::open(&path, 64, Arc::new(FaultInjector::new())).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
