//! The page store's slot table: an append-only, lock-free chunked array.
//!
//! Every page access looks its page's slot up by index, so the lookup is
//! on the hottest path there is. Entries are never removed or moved —
//! a freed page keeps its slot for the next allocation — so the table is
//! a directory of chunks that only grows: chunk `c` holds
//! `FIRST_CHUNK << c` entries and, once published, is never replaced.
//! A lookup is two acquire loads (the length and the chunk) and no
//! write; an entry reference lives as long as the table.
//!
//! Growth — the allocation path when the free list is empty — is the
//! only writer. It serializes on the `grow` mutex (audited as
//! [`LockClass::SlotsMap`], a leaf), builds the next chunk when the
//! current one is full, and publishes the new entry by storing the
//! length with `Release`.

use crate::audit::{self, LockClass};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// log2 of the first chunk's length.
const FIRST_BITS: u32 = 6;
/// Entries in chunk 0.
const FIRST_CHUNK: usize = 1 << FIRST_BITS;
/// Chunks in the directory: `64 · (2^27 − 1)` entries cover every `u32`
/// page id.
const CHUNKS: usize = 27;

/// Chunk and offset of entry `i`.
fn locate(i: usize) -> (usize, usize) {
    let j = (i >> FIRST_BITS) + 1;
    let c = (usize::BITS - 1 - j.leading_zeros()) as usize;
    (c, i - (((1usize << c) - 1) << FIRST_BITS))
}

/// An append-only table of `T`s with lock-free lookup (see module docs).
pub(crate) struct SlotTable<T> {
    chunks: [OnceLock<Box<[T]>>; CHUNKS],
    /// Published entries. Stored `Release` after the entry's chunk is
    /// initialized; loaded `Acquire` before any lookup.
    len: AtomicUsize,
    /// Serializes growth; nothing else takes it.
    grow: Mutex<()>,
}

impl<T: Default> SlotTable<T> {
    pub(crate) fn new() -> SlotTable<T> {
        SlotTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// Published entries.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Entry `i`, if published.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len() {
            return None;
        }
        let (c, off) = locate(i);
        let chunk = self.chunks[c].get().expect("published entry has its chunk");
        Some(&chunk[off])
    }

    /// Every published entry, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// The growth function: under the growth mutex, runs `prepare` with
    /// the next index (e.g. to grow a backend to cover it), then publishes
    /// a default entry there and returns its index. A failed `prepare`
    /// publishes nothing.
    pub(crate) fn grow_with<E>(
        &self,
        prepare: impl FnOnce(usize) -> Result<(), E>,
    ) -> Result<usize, E> {
        let _grow = audit::audited(LockClass::SlotsMap, self as *const Self as usize, || {
            self.grow.lock()
        });
        let idx = self.len.load(Ordering::Relaxed);
        prepare(idx)?;
        let (c, _) = locate(idx);
        self.chunks[c].get_or_init(|| (0..FIRST_CHUNK << c).map(|_| T::default()).collect());
        self.len.store(idx + 1, Ordering::Release);
        Ok(idx)
    }
}

impl<T> std::fmt::Debug for SlotTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotTable")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn locate_tiles_the_index_space() {
        // Consecutive indices walk each chunk from offset 0 to its end,
        // then start the next chunk: no gaps, no overlaps.
        let mut expect = (0usize, 0usize);
        for i in 0..(FIRST_CHUNK << 5) {
            assert_eq!(locate(i), expect, "index {i}");
            expect.1 += 1;
            if expect.1 == FIRST_CHUNK << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
        // The last u32 page index still lands inside the directory.
        let (c, off) = locate(u32::MAX as usize);
        assert!(c < CHUNKS && off < FIRST_CHUNK << c);
    }

    #[test]
    fn grow_publishes_in_order_and_get_bounds_checks() {
        let t: SlotTable<AtomicU64> = SlotTable::new();
        assert!(t.get(0).is_none());
        for i in 0..300 {
            let grown = t.grow_with(|idx| {
                assert_eq!(idx, i);
                Ok::<_, ()>(())
            });
            assert_eq!(grown, Ok(i));
            t.get(i).unwrap().store(i as u64, Ordering::Relaxed);
        }
        assert_eq!(t.len(), 300);
        assert!(t.get(300).is_none());
        let seen: Vec<u64> = t.iter().map(|e| e.load(Ordering::Relaxed)).collect();
        assert_eq!(seen, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn failed_prepare_publishes_nothing() {
        let t: SlotTable<AtomicU64> = SlotTable::new();
        assert_eq!(t.grow_with(|_| Err("backend full")), Err("backend full"));
        assert_eq!(t.len(), 0);
        assert_eq!(t.grow_with(|_| Ok::<_, ()>(())), Ok(0));
    }

    #[test]
    fn entries_keep_their_address_across_growth() {
        let t: SlotTable<AtomicU64> = SlotTable::new();
        t.grow_with(|_| Ok::<_, ()>(())).unwrap();
        let first = t.get(0).unwrap() as *const AtomicU64;
        for _ in 0..1_000 {
            t.grow_with(|_| Ok::<_, ()>(())).unwrap();
        }
        assert_eq!(t.get(0).unwrap() as *const AtomicU64, first);
    }

    #[test]
    fn concurrent_growers_and_readers_agree() {
        let t: Arc<SlotTable<AtomicU64>> = Arc::new(SlotTable::new());
        let growers: Vec<_> = (0..2)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let i = t.grow_with(|_| Ok::<_, ()>(())).unwrap();
                        // A returned index is always readable.
                        t.get(i).expect("returned index is published");
                    }
                })
            })
            .collect();
        for g in growers {
            g.join().unwrap();
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.iter().count(), 1_000);
    }
}
