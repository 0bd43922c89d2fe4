//! The buffer pool: a fixed table of page frames with pin counts and CLOCK
//! (second-chance) replacement.
//!
//! Until PR 2 the "cache" (`ClockCache` — now gone) tracked *residency
//! only*: it remembered PageIds so a simulated I/O delay could be skipped,
//! while every `get` still copied the whole page out of the backend. This
//! module holds the bytes themselves, so a hit costs a pin + a read-latch
//! and **zero page-sized copies** — callers borrow the frame through
//! [`crate::store::PageRef`] / [`crate::store::PageWrite`] guards.
//!
//! ## Frame life cycle
//!
//! ```text
//!   free ──claim──► loading ──owner published──► resident ──┐
//!    ▲                                             │ ▲      │ put: dirty=true
//!    └──────── discard (page freed) ◄──────────────┘ └──────┘
//!                     resident+dirty ──evict──► flush ──► reused for new page
//! ```
//!
//! * A frame is **pinned** while any guard refers to it; the clock hand
//!   never evicts a pinned frame (`pins > 0`).
//! * Eviction of a dirty frame keeps the *old* page's mapping alive (in
//!   `flushing`) until its bytes have been written back to the backend —
//!   otherwise a concurrent reader could miss in the pool and read stale
//!   bytes from the backend while the newest version sat in the doomed
//!   frame. The WAL record for those bytes was appended when they were put
//!   (write-ahead order), so the write-back itself needs no logging.
//! * All pinning happens under a shard mutex; unpinning is a plain atomic
//!   decrement, so dropping a guard never takes a lock.
//!
//! ## Locking
//!
//! The pool is sharded by page id to keep the map mutex off the hot path's
//! critical section. Shard mutexes are **leaves**: no I/O and no other lock
//! is ever taken while one is held. Frame data is under a per-frame
//! `RwLock`; the store's lock order is *frame latch → page slot latch →
//! backend/journal*, and shard mutexes may be taken at any point because
//! they never wait on anything above them.

use crate::audit::{self, Audited, LockClass};
use crate::page::PageId;
use crate::stats::StoreStats;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One page-sized buffer plus its concurrency state.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The page bytes. Readers hold the read latch for the lifetime of a
    /// guard; loads, write guards and eviction flushes hold the write latch.
    pub(crate) data: RwLock<Box<[u8]>>,
    /// Seqlock word for optimistic (latch-free) reads: even = stable, odd =
    /// a mutation is in progress. Every path that changes the frame's bytes
    /// or its page mapping brackets the change with [`Frame::begin_write`] /
    /// [`Frame::end_write`] while holding the write latch; an optimistic
    /// reader snapshots the bytes between two even, equal loads.
    version: AtomicU64,
    /// The heap address of the page buffer, captured at construction. The
    /// boxed slice never moves or reallocates for the frame's lifetime, so
    /// optimistic readers can copy from it without holding `data`'s latch
    /// (validity is established after the copy by re-checking `version`).
    data_addr: usize,
    /// Raw id of the page whose bytes are valid in `data` (0 = none yet).
    /// Published with `Release` after a successful load/overwrite; a pinner
    /// validates it after acquiring the latch and retries on mismatch.
    pub(crate) owner: AtomicU32,
    /// Guards (and in-flight loaders) referring to this frame. A pinned
    /// frame is never chosen as an eviction victim.
    pins: AtomicU32,
    /// Frame bytes are newer than the backend (write-back pending).
    pub(crate) dirty: AtomicBool,
    /// CLOCK reference bit.
    referenced: AtomicBool,
}

impl Frame {
    fn new(page_size: usize) -> Frame {
        let data: Box<[u8]> = vec![0u8; page_size].into_boxed_slice();
        let data_addr = data.as_ptr() as usize;
        Frame {
            data: RwLock::new(data),
            version: AtomicU64::new(0),
            data_addr,
            owner: AtomicU32::new(0),
            pins: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(false),
        }
    }

    /// Releases one pin. Lock-free: guards drop without touching the shard.
    pub(crate) fn unpin(&self) {
        let prev = self.pins.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin of an unpinned frame");
    }

    /// Current owner matches `pid`? (Validation after latch acquisition.)
    pub(crate) fn owned_by(&self, pid: PageId) -> bool {
        self.owner.load(Ordering::Acquire) == pid.to_raw()
    }

    /// Marks the frame unstable (even → odd). Call with the write latch
    /// held, before the first byte of the frame changes.
    ///
    /// The pairing checks are `debug_assert!`s in ordinary builds but stay
    /// on in release under `latch-audit`, so release-mode stress runs still
    /// catch nested/unpaired writes.
    pub(crate) fn begin_write(&self) {
        crate::audit::seqlock_write_begin(self.audit_addr());
        let v = self.version.fetch_add(1, Ordering::Acquire);
        if cfg!(debug_assertions) || cfg!(feature = "latch-audit") {
            assert!(v.is_multiple_of(2), "nested begin_write");
        }
    }

    /// Marks the frame stable again (odd → even) after a mutation.
    pub(crate) fn end_write(&self) {
        let v = self.version.fetch_add(1, Ordering::Release);
        if cfg!(debug_assertions) || cfg!(feature = "latch-audit") {
            assert!(v % 2 == 1, "end_write without begin_write");
        }
    }

    /// The frame's identity for the latch auditor: its own address (frames
    /// are allocated once at pool construction and never move).
    pub(crate) fn audit_addr(&self) -> usize {
        self as *const Frame as usize
    }

    /// Attempts a latch-free snapshot of the frame's bytes into `buf`.
    /// Returns the (even) version the snapshot is tagged with, or `None`
    /// when a writer held the frame mid-copy. The caller must still
    /// validate the surrounding page state (owner, allocation) *and*
    /// re-check the version via [`Frame::version_is`] after consuming the
    /// bytes.
    ///
    /// Safety of the unlatched copy: the buffer never moves (`data_addr`
    /// is captured before the `RwLock` wraps the box), reads of bytes
    /// racing a writer are fine for `u8` copies through raw pointers, and
    /// any torn result is discarded by the version re-check.
    pub(crate) fn snapshot_unlatched(&self, buf: &mut [u8]) -> Option<u64> {
        let v1 = self.version.load(Ordering::Acquire);
        if !v1.is_multiple_of(2) {
            return None;
        }
        // SAFETY: `data_addr` points at this frame's heap buffer, which is
        // allocated once in `Frame::new`, is never reallocated or freed
        // while the frame (and thus `self`) is alive, and is at least
        // `page_size ≥ buf.len()` bytes. A writer may be mutating the
        // buffer concurrently, but byte-sized reads through raw pointers
        // cannot fault, and any torn copy is discarded by the version
        // re-check below (and again by the caller's `version_is`).
        unsafe {
            std::ptr::copy_nonoverlapping(self.data_addr as *const u8, buf.as_mut_ptr(), buf.len());
        }
        fence(Ordering::Acquire);
        if self.version.load(Ordering::Relaxed) == v1 {
            Some(v1)
        } else {
            None
        }
    }

    /// True when the frame's version still equals `v` (and is therefore
    /// still even: no mutation started since the matching snapshot).
    pub(crate) fn version_is(&self, v: u64) -> bool {
        fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == v
    }
}

/// Book-keeping per frame, guarded by the shard mutex.
#[derive(Debug, Default, Clone, Copy)]
struct FrameMeta {
    /// The page currently mapped to this frame (valid or being loaded).
    resident: Option<PageId>,
    /// The evicted page whose dirty bytes are still being flushed out of
    /// this frame; its map entry stays alive until the flush finishes.
    flushing: Option<PageId>,
}

#[derive(Debug)]
struct ShardState {
    map: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    /// Frames never used since construction (fast path before the clock).
    free: Vec<usize>,
    hand: usize,
}

#[derive(Debug)]
struct Shard {
    frames: Box<[Frame]>,
    state: Mutex<ShardState>,
}

/// Outcome of [`BufferPool::claim`]. `Hit` and `Miss` return with one pin
/// taken on the frame; the caller owns that pin.
pub(crate) enum Claim<'a> {
    /// `pid` is mapped. The frame may still be loading or may have been
    /// repurposed since the map lookup — validate `owner` after latching
    /// and retry the claim on mismatch.
    Hit(&'a Frame),
    /// A frame was reserved for `pid`; the caller must populate it under
    /// the write latch and then call `complete_miss` (or `abort_miss`).
    Miss {
        frame: &'a Frame,
        idx: usize,
        /// Dirty victim to write back (still mapped) before loading.
        flush: Option<PageId>,
        /// Whether a resident page (clean or dirty) was displaced.
        evicted: bool,
    },
    /// Every frame is pinned, or the pool has none: the caller bypasses the
    /// pool for this access.
    Exhausted,
}

/// A sharded table of page frames with CLOCK replacement.
#[derive(Debug)]
pub(crate) struct BufferPool {
    shards: Box<[Shard]>,
    capacity: usize,
    stats: Arc<StoreStats>,
    /// Number of frames whose `dirty` bit is currently set. Maintained by
    /// [`BufferPool::mark_dirty`] / [`BufferPool::clear_dirty`] — every
    /// transition of a frame's dirty bit must go through those two methods
    /// so the gauge stays exact. The flusher's watermarks and the
    /// clean-store fast path in `PageStore::flush` read it lock-free.
    dirty_gauge: AtomicUsize,
}

impl BufferPool {
    pub(crate) fn new(frames: usize, page_size: usize, stats: Arc<StoreStats>) -> BufferPool {
        // Small pools stay single-sharded so their eviction behavior is the
        // textbook single-clock one (and tiny tests stay deterministic).
        let nshards = if frames >= 64 { 8 } else { 1 };
        let per = frames / nshards;
        let mut shards = Vec::with_capacity(nshards);
        let mut left = frames;
        for s in 0..nshards {
            let n = if s + 1 == nshards { left } else { per };
            left -= n;
            shards.push(Shard {
                frames: (0..n).map(|_| Frame::new(page_size)).collect(),
                state: Mutex::new(ShardState {
                    map: HashMap::new(),
                    meta: vec![FrameMeta::default(); n],
                    free: (0..n).rev().collect(),
                    hand: 0,
                }),
            });
        }
        BufferPool {
            shards: shards.into_boxed_slice(),
            capacity: frames,
            stats,
            dirty_gauge: AtomicUsize::new(0),
        }
    }

    /// Sets `f`'s dirty bit, keeping the pool-wide gauge exact. Idempotent:
    /// only a clean→dirty transition bumps the gauge.
    pub(crate) fn mark_dirty(&self, f: &Frame) {
        if !f.dirty.swap(true, Ordering::AcqRel) {
            self.dirty_gauge.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Clears `f`'s dirty bit. Returns `true` when the frame *was* dirty
    /// (the caller won the write-back and owes the backend those bytes).
    pub(crate) fn clear_dirty(&self, f: &Frame) -> bool {
        if f.dirty.swap(false, Ordering::AcqRel) {
            let prev = self.dirty_gauge.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "dirty gauge underflow");
            true
        } else {
            false
        }
    }

    /// Current number of dirty frames (exact, lock-free).
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty_gauge.load(Ordering::Acquire)
    }

    /// Acquires a shard mutex, timing only the contended (slow) path into
    /// the pool-wait histogram — the uncontended `try_lock` costs nothing
    /// beyond the acquisition itself. The only place `Shard::state` is
    /// locked: every acquisition registers with the latch auditor as a
    /// `PoolShard` (a leaf class — nothing may be acquired under it).
    fn lock_shard<'a>(&self, shard: &'a Shard) -> Audited<MutexGuard<'a, ShardState>> {
        audit::audited(LockClass::PoolShard, shard as *const Shard as usize, || {
            if let Some(g) = shard.state.try_lock() {
                return g;
            }
            let t0 = Instant::now();
            let g = shard.state.lock();
            self.stats.record_pool_wait(t0.elapsed().as_nanos() as u64);
            g
        })
    }

    /// Total frames.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, pid: PageId) -> &Shard {
        &self.shards[pid.to_raw() as usize % self.shards.len()]
    }

    /// Looks `pid` up, pinning on a hit, or reserves a frame for it
    /// (possibly choosing a victim). See [`Claim`].
    pub(crate) fn claim(&self, pid: PageId) -> Claim<'_> {
        if self.capacity == 0 {
            return Claim::Exhausted;
        }
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(&i) = st.map.get(&pid) {
            let f = &shard.frames[i];
            f.pins.fetch_add(1, Ordering::AcqRel);
            f.referenced.store(true, Ordering::Relaxed);
            return Claim::Hit(f);
        }
        if let Some(i) = st.free.pop() {
            st.meta[i].resident = Some(pid);
            st.map.insert(pid, i);
            let f = &shard.frames[i];
            f.pins.fetch_add(1, Ordering::AcqRel);
            f.referenced.store(true, Ordering::Relaxed);
            return Claim::Miss {
                frame: f,
                idx: i,
                flush: None,
                evicted: false,
            };
        }
        let n = shard.frames.len();
        // CLOCK sweep: two full revolutions (the first may only be clearing
        // reference bits) before declaring the pool pinned solid.
        for _ in 0..2 * n {
            let i = st.hand;
            st.hand = (st.hand + 1) % n;
            let f = &shard.frames[i];
            // Pins only *increase* under this mutex, so pins == 0 here means
            // no guard exists and none can appear until we pin it ourselves.
            if f.pins.load(Ordering::Acquire) != 0 {
                continue;
            }
            let Some(old) = st.meta[i].resident else {
                // Discarded (freed-page) frame: reusable without eviction.
                st.meta[i].resident = Some(pid);
                st.map.insert(pid, i);
                f.pins.fetch_add(1, Ordering::AcqRel);
                f.referenced.store(true, Ordering::Relaxed);
                self.clear_dirty(f);
                return Claim::Miss {
                    frame: f,
                    idx: i,
                    flush: None,
                    evicted: false,
                };
            };
            if f.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            // Victim. Dirty: keep the old mapping alive until the caller has
            // flushed it (readers of `old` must not fall through to a stale
            // backend). Clean: the backend is current, unmap immediately.
            let dirty = f.dirty.load(Ordering::Acquire);
            if dirty {
                st.meta[i].flushing = Some(old);
            } else {
                st.map.remove(&old);
            }
            st.meta[i].resident = Some(pid);
            st.map.insert(pid, i);
            f.pins.fetch_add(1, Ordering::AcqRel);
            f.referenced.store(true, Ordering::Relaxed);
            return Claim::Miss {
                frame: f,
                idx: i,
                flush: dirty.then_some(old),
                evicted: true,
            };
        }
        Claim::Exhausted
    }

    /// Counts an access that went around the pool because [`BufferPool::claim`]
    /// found every frame pinned, and returns whether it counted. A pool
    /// without frames counts nothing: there every access goes to the
    /// backend by design.
    pub(crate) fn count_bypass(&self) -> bool {
        if self.capacity == 0 {
            return false;
        }
        StoreStats::bump(&self.stats.pool_bypasses);
        true
    }

    /// Finishes a miss: drops the flushed-out victim's mapping. Returns
    /// `false` when `pid`'s reservation was discarded while loading (the
    /// page was freed concurrently) — the caller's guard stays valid (it
    /// holds a pin) but the frame is an orphan that the clock will reclaim.
    pub(crate) fn complete_miss(&self, pid: PageId, idx: usize) -> bool {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(old) = st.meta[idx].flushing.take() {
            if st.map.get(&old) == Some(&idx) {
                st.map.remove(&old);
            }
        }
        st.map.get(&pid) == Some(&idx)
    }

    /// Rolls a miss back (load or first write failed): unmaps the
    /// reservation, drops the victim's stale mapping, and releases the
    /// claim's pin. The backend was never written for `pid`, so readers
    /// falling through to it observe the pre-claim state.
    pub(crate) fn abort_miss(&self, pid: PageId, idx: usize) {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(old) = st.meta[idx].flushing.take() {
            if st.map.get(&old) == Some(&idx) {
                st.map.remove(&old);
            }
        }
        if st.map.get(&pid) == Some(&idx) {
            st.map.remove(&pid);
        }
        if st.meta[idx].resident == Some(pid) {
            st.meta[idx].resident = None;
        }
        let f = &shard.frames[idx];
        self.clear_dirty(f);
        f.owner.store(0, Ordering::Release);
        f.unpin();
    }

    /// True while `idx` is still flushing `old` out — i.e. the victim was
    /// not freed (and possibly reallocated) since the claim. The caller
    /// checks this under the page's slot latch immediately before the
    /// write-back: `free` runs [`BufferPool::discard`] (which clears
    /// `flushing`) before the page can reach the free list, and both `free`
    /// and `alloc` need that same slot latch, so a `true` answer cannot go
    /// stale while the latch is held.
    pub(crate) fn still_flushing(&self, old: PageId, idx: usize) -> bool {
        let shard = self.shard(old);
        let st = self.lock_shard(shard);
        st.meta.get(idx).is_some_and(|m| m.flushing == Some(old))
    }

    /// Rolls back a claim whose victim write-back failed: the victim's
    /// bytes are still the only up-to-date copy, so instead of dropping
    /// them (which would let later reads serve stale backend data as `Ok`)
    /// the victim is reinstated as the frame's resident page, still dirty,
    /// to be flushed again later. `pid`'s reservation is removed. Releases
    /// the claim's pin.
    pub(crate) fn restore_victim(&self, pid: PageId, idx: usize) {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if st.map.get(&pid) == Some(&idx) {
            st.map.remove(&pid);
        }
        match st.meta[idx].flushing.take() {
            // The victim's map entry was never removed (flush-before-unmap),
            // so restoring residency is just flipping the meta back.
            Some(old) if st.map.get(&old) == Some(&idx) => {
                st.meta[idx].resident = Some(old);
            }
            // Victim freed (discard cleared `flushing`) while we failed:
            // its bytes no longer matter — leave the frame an orphan.
            _ => {
                st.meta[idx].resident = None;
                self.clear_dirty(&shard.frames[idx]);
            }
        }
        shard.frames[idx].unpin();
    }

    /// Drops `pid`'s frame on free: unmaps it and clears `dirty` so the
    /// stale bytes are never written back. Outstanding guards keep reading
    /// their pinned frame (the paper's "private snapshot" semantics); the
    /// clock reclaims the frame once the last pin drops.
    pub(crate) fn discard(&self, pid: PageId) {
        if self.capacity == 0 {
            return;
        }
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(&i) = st.map.get(&pid) {
            if st.meta[i].resident == Some(pid) {
                st.map.remove(&pid);
                st.meta[i].resident = None;
                self.clear_dirty(&shard.frames[i]);
            } else if st.meta[i].flushing == Some(pid) {
                // Mid-eviction of a page that was just freed: drop the stale
                // mapping now; the evictor's flush skips unallocated pages.
                st.map.remove(&pid);
                st.meta[i].flushing = None;
            }
        }
    }

    /// Pins `pid`'s frame **only if it is already resident** — the
    /// optimistic-read fast path. Never loads, never evicts, never blocks
    /// on anything but the shard mutex. Returns `None` on a pool miss (the
    /// caller falls back to the latched [`BufferPool::claim`] path).
    pub(crate) fn pin_resident(&self, pid: PageId) -> Option<&Frame> {
        if self.capacity == 0 {
            return None;
        }
        let shard = self.shard(pid);
        let st = self.lock_shard(shard);
        let &i = st.map.get(&pid)?;
        if st.meta[i].resident != Some(pid) {
            // Mapped only as a flushing victim: the frame now belongs to a
            // different page.
            return None;
        }
        let f = &shard.frames[i];
        f.pins.fetch_add(1, Ordering::AcqRel);
        f.referenced.store(true, Ordering::Relaxed);
        Some(f)
    }

    /// True when `pid` currently has a frame (used by bypass paths to
    /// re-check, under the page latch, that no loader raced them).
    pub(crate) fn is_mapped(&self, pid: PageId) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.lock_shard(self.shard(pid)).map.contains_key(&pid)
    }

    /// Pins and returns every dirty resident frame, for a flush-everything
    /// barrier (`sync`/checkpoint). The caller writes each frame back under
    /// its read latch and unpins it.
    pub(crate) fn pin_dirty(&self) -> Vec<(&Frame, PageId)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let st = self.lock_shard(shard);
            for (i, m) in st.meta.iter().enumerate() {
                if let Some(pid) = m.resident {
                    let f = &shard.frames[i];
                    if f.dirty.load(Ordering::Acquire) {
                        f.pins.fetch_add(1, Ordering::AcqRel);
                        out.push((f, pid));
                    }
                }
            }
        }
        out
    }

    /// Pins and returns up to `max` dirty resident frames, visiting each
    /// shard's frames **in clock-hand order** starting at the current hand:
    /// the flusher cleans the frames the clock will reach soonest, so
    /// foreground evictions find clean victims and skip the write-back.
    /// Does not advance the hand — cleaning a frame costs it nothing.
    pub(crate) fn pin_dirty_batch(&self, max: usize) -> Vec<(&Frame, PageId)> {
        let mut out = Vec::new();
        if max == 0 {
            return out;
        }
        for shard in self.shards.iter() {
            let st = self.lock_shard(shard);
            let n = shard.frames.len();
            for k in 0..n {
                let i = (st.hand + k) % n;
                if let Some(pid) = st.meta[i].resident {
                    let f = &shard.frames[i];
                    if f.dirty.load(Ordering::Acquire) {
                        f.pins.fetch_add(1, Ordering::AcqRel);
                        out.push((f, pid));
                        if out.len() >= max {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    /// Pins and returns **every** resident frame, dirty or not — the fuzzy
    /// checkpoint's writer barrier. Visiting a clean frame matters there:
    /// the checkpoint must *acquire each frame's read latch* to wait out
    /// in-flight writers (who hold the write latch from before their WAL
    /// append until after the dirty bit is set), so a dirty-only snapshot
    /// taken here could miss a write whose record predates the checkpoint
    /// cut. The caller re-checks `dirty` under the latch.
    pub(crate) fn pin_resident_all(&self) -> Vec<(&Frame, PageId)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let st = self.lock_shard(shard);
            for (i, m) in st.meta.iter().enumerate() {
                if let Some(pid) = m.resident {
                    let f = &shard.frames[i];
                    f.pins.fetch_add(1, Ordering::AcqRel);
                    out.push((f, pid));
                }
            }
        }
        out
    }

    /// Pages currently resident (tests/diagnostics).
    pub(crate) fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).map.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    #[test]
    fn hit_after_miss_and_complete() {
        let p = BufferPool::new(4, 32, Arc::new(StoreStats::default()));
        let (f, i) = match p.claim(pid(1)) {
            Claim::Miss {
                frame,
                idx,
                flush: None,
                evicted: false,
            } => (frame, idx),
            _ => panic!("fresh pool must miss"),
        };
        f.owner.store(1, Ordering::Release);
        assert!(p.complete_miss(pid(1), i));
        f.unpin();
        match p.claim(pid(1)) {
            Claim::Hit(f2) => {
                assert!(f2.owned_by(pid(1)));
                f2.unpin();
            }
            _ => panic!("must hit after load"),
        }
        assert_eq!(p.resident(), 1);
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let p = BufferPool::new(2, 32, Arc::new(StoreStats::default()));
        // Fill both frames, keep both pinned.
        for n in 1..=2u32 {
            match p.claim(pid(n)) {
                Claim::Miss { frame, idx, .. } => {
                    frame.owner.store(n, Ordering::Release);
                    p.complete_miss(pid(n), idx);
                    // pin retained
                }
                _ => panic!("miss expected"),
            }
        }
        assert!(matches!(p.claim(pid(3)), Claim::Exhausted));
    }

    #[test]
    fn clock_evicts_unreferenced_and_dirty_victims_keep_mapping() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        let f1 = match p.claim(pid(1)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(1, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(1), idx);
                frame.unpin();
                frame as *const Frame
            }
            _ => panic!(),
        };
        // First claim of 2 sweeps: clears pid(1)'s reference bit, second
        // revolution takes it as the victim with a pending flush.
        match p.claim(pid(2)) {
            Claim::Miss {
                frame,
                idx,
                flush,
                evicted,
            } => {
                assert_eq!(flush, Some(pid(1)));
                assert!(evicted);
                assert!(std::ptr::eq(frame, f1));
                // Old mapping still present until the flush completes.
                assert!(p.is_mapped(pid(1)));
                assert!(p.complete_miss(pid(2), idx));
                assert!(!p.is_mapped(pid(1)));
                frame.unpin();
            }
            _ => panic!("eviction expected"),
        }
    }

    #[test]
    fn abort_returns_frame_to_the_clock() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(1)) {
            Claim::Miss { idx, .. } => p.abort_miss(pid(1), idx),
            _ => panic!(),
        }
        assert!(!p.is_mapped(pid(1)));
        // The frame is reusable immediately.
        match p.claim(pid(2)) {
            Claim::Miss {
                idx, flush: None, ..
            } => p.abort_miss(pid(2), idx),
            _ => panic!("aborted frame must be claimable"),
        }
    }

    #[test]
    fn restore_victim_reinstates_dirty_resident() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(1)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(1, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(1), idx);
                frame.unpin();
            }
            _ => panic!(),
        }
        // Claim 2 over the dirty 1, then fail the flush: 1 must come back.
        match p.claim(pid(2)) {
            Claim::Miss {
                frame, idx, flush, ..
            } => {
                assert_eq!(flush, Some(pid(1)));
                assert!(p.still_flushing(pid(1), idx));
                p.restore_victim(pid(2), idx);
                assert!(frame.dirty.load(Ordering::Acquire), "dirty preserved");
            }
            _ => panic!(),
        }
        assert!(!p.is_mapped(pid(2)));
        match p.claim(pid(1)) {
            Claim::Hit(f) => {
                assert!(f.owned_by(pid(1)), "victim restored as resident");
                f.unpin();
            }
            _ => panic!("restored victim must hit"),
        }
        assert_eq!(p.pin_dirty().len(), 1);
        for (f, _) in p.pin_dirty() {
            f.unpin();
        }
    }

    #[test]
    fn freed_victim_is_not_still_flushing() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(1)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(1, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(1), idx);
                frame.unpin();
            }
            _ => panic!(),
        }
        match p.claim(pid(2)) {
            Claim::Miss { idx, flush, .. } => {
                assert_eq!(flush, Some(pid(1)));
                // Page 1 is freed (and could be reallocated) mid-eviction:
                // the write-back must be suppressed, and a restore after a
                // (hypothetical) failed flush leaves an orphan, not a
                // resurrected freed page.
                p.discard(pid(1));
                assert!(!p.still_flushing(pid(1), idx));
                p.restore_victim(pid(2), idx);
            }
            _ => panic!(),
        }
        assert!(!p.is_mapped(pid(1)));
        assert!(!p.is_mapped(pid(2)));
        assert!(p.pin_dirty().is_empty(), "orphan frame must not stay dirty");
    }

    #[test]
    fn discard_unmaps_and_clears_dirty() {
        let p = BufferPool::new(2, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(7)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(7, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(7), idx);
                frame.unpin();
            }
            _ => panic!(),
        }
        p.discard(pid(7));
        assert!(!p.is_mapped(pid(7)));
        assert!(p.pin_dirty().is_empty(), "discard must clear dirty");
        // Claiming something new never flushes the discarded page.
        match p.claim(pid(8)) {
            Claim::Miss { flush, idx, .. } => {
                assert_eq!(flush, None);
                p.abort_miss(pid(8), idx);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pin_dirty_pins_exactly_the_dirty_frames() {
        let p = BufferPool::new(4, 32, Arc::new(StoreStats::default()));
        for n in 1..=3u32 {
            match p.claim(pid(n)) {
                Claim::Miss { frame, idx, .. } => {
                    frame.owner.store(n, Ordering::Release);
                    if n != 2 {
                        p.mark_dirty(frame);
                    }
                    p.complete_miss(pid(n), idx);
                    frame.unpin();
                }
                _ => panic!(),
            }
        }
        let dirty = p.pin_dirty();
        let mut pids: Vec<u32> = dirty.iter().map(|(_, p)| p.to_raw()).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![1, 3]);
        for (f, _) in dirty {
            f.unpin();
        }
    }

    #[test]
    fn zero_capacity_pool_is_always_exhausted() {
        let p = BufferPool::new(0, 32, Arc::new(StoreStats::default()));
        assert!(matches!(p.claim(pid(1)), Claim::Exhausted));
        assert!(!p.is_mapped(pid(1)));
        p.discard(pid(1));
    }
}
