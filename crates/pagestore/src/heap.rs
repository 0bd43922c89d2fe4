//! Record heap: storage for the records that leaf pairs point to.
//!
//! §2.1: "the leaves contain pairs (v, p), where p points to the record with
//! key value v" — the B\*-tree is a *dense index* over records stored
//! elsewhere. This module is that elsewhere: slotted pages holding arbitrary
//! byte records, addressed by a stable [`RecordId`].
//!
//! Since PR 3 the heap is designed to **share a [`PageStore`] with the
//! index** (one WAL, one buffer pool, one recovery pass covering both).
//! Since PR 4 it is also engineered to never be the write-scalability
//! ceiling of that arrangement: the paper's index operations proceed
//! concurrently with overtaking, so the value layer under them must not
//! re-serialize every `put` on one allocator mutex.
//!
//! ## Concurrency model (PR 4)
//!
//! * **Insertion is sharded.** The heap owns `shards` independent open
//!   pages, each behind its own mutex. A thread picks its shard by thread
//!   identity (a process-wide ticket handed out on first use), so two
//!   threads inserting concurrently touch different open pages and never
//!   contend — the multi-writer analogue of the paper's "different
//!   processes work on different nodes".
//! * **`update` and `free` take no heap-level lock at all.** They mutate
//!   exactly one page through the store's [`crate::PageWrite`] guard, whose
//!   frame write latch already serializes same-page mutations; mutations on
//!   distinct pages proceed fully in parallel. Exactly-once free discipline
//!   is the caller's (the `Db`'s single-lock leaf update), not the heap's.
//! * **Freed slots are reused in page** (the ROADMAP "heap space reuse"
//!   item): a freed slot keeps its data extent and is found again by a
//!   best-fit directory scan; partially-empty pages re-enter a shard's
//!   allocation pool through a recycle queue instead of only fully-empty
//!   pages returning to the store.
//!
//! ## Page layout (little-endian)
//!
//! ```text
//! 0..2   live     u16   number of live (non-freed) records on the page
//! 2..4   nslots   u16   slot directory entries ever created
//! 4..6   free_off u16   offset of the first free data byte (bump space)
//! 6..8   magic    u16   HEAP_MAGIC — marks the page as heap-owned
//! 8..10  gen      u16   generation of this heap incarnation of the page
//! 10..12 state    u16   allocator state: 0 detached / 1 open / 2 queued
//! 12..20 lsn      u64   per-page LSN, stamped by the *store* on every
//!                       delta-logged commit (PR 5). The heap never writes
//!                       it; recovery applies a delta record to the page
//!                       iff the record's LSN is newer. Coexists with
//!                       magic/generation: those identify the page, the
//!                       LSN orders its WAL records.
//! 20..24 crc      u32   per-page CRC32, stamped by the *store* at backend
//!                       write sites and verified on pool-miss reads. The
//!                       heap never touches it.
//! 24..   record data, growing upward
//! ...    slot directory growing downward from the page end;
//!        slot i occupies the 8 bytes at page_size - 8*(i+1):
//!        off u16, cap u16, len u16, gen u16
//!        (len == 0xFFFF marks a freed slot; off/cap keep its extent so the
//!        space can be handed to a later insert, and gen survives the free
//!        so the next tenant can mint a strictly newer one)
//! ```
//!
//! Every mutation below goes through the store's **tracked-range write
//! API** ([`crate::PageWrite::write_at`]): a record insert dirties only
//! its data extent, one slot-directory entry and a few header words, so
//! the WAL sees a coalesced delta record of tens of bytes instead of a
//! full page image — the PR 5 write-amplification fix.
//!
//! The freed marker is the same `0xFFFF` tombstone PR 3 used, moved from
//! `off` to `len` so a tombstoned slot still remembers *where* and *how
//! big* its extent is. A linked free list threaded through the tombstones
//! was considered and rejected: the tombstone fields already carry the
//! extent geometry reuse needs, and a directory scan (bounded by
//! `page_size / 8` entries, taken only when the page has freed slots, under
//! a latch that is already held) buys best-fit placement for free.
//!
//! ## Generations
//!
//! Generations are **per slot** now, not per page: every slot creation or
//! reuse mints a fresh generation from one heap-wide monotonic counter, and
//! the [`RecordId`] carries it. A stale id — to a freed slot, a reused
//! slot, or a page that was freed and reincarnated (even as a newer heap
//! page) — is detected as [`StoreError::RecordMissing`] instead of silently
//! reading someone else's bytes. The counter wraps within `u16` (never 0),
//! so an id held across ~65k mints that land on the same (page, slot) could
//! in principle ABA; [`RecordHeap::attach`] reseeds the counter past every
//! generation stored on disk so restarts never rewind it.
//!
//! ## Allocator page states
//!
//! Byte 10 tracks which pool a page belongs to, transitioned only under the
//! page's own write guard:
//!
//! * `OPEN` — some shard's current open page. Never released or adopted.
//! * `QUEUED` — on the heap's recycle queue, available for any shard to
//!   adopt when its open page fills. Entered when a `free` carves space
//!   into a detached page (or a rotation retires a page that already has
//!   freed slots).
//! * `DETACHED` — neither; full pages waiting for a `free` to re-enroll
//!   them. A detached page whose last record is freed is released to the
//!   store immediately; an open one is handled by its shard at rotation.

use crate::audit::{self, Audited, LockClass};
use crate::error::{Result, StoreError};
use crate::page::{Page, PageId};
use crate::stats::StoreStats;
use crate::store::{PageStore, WriteIntent};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const HDR: usize = 24;
const SLOT: usize = 8;
const FREED: u16 = 0xFFFF;

// The store-reserved region (per-page LSN + CRC) must sit inside the heap
// header, right after the state word (see the layout above and
// `crate::page`).
const _: () = assert!(crate::page::PAGE_LSN_OFFSET == 12);
const _: () = assert!(crate::page::PAGE_RESERVED_END == HDR);

/// Allocator states stored in header bytes 10..12.
const STATE_DETACHED: u16 = 0;
const STATE_OPEN: u16 = 1;
const STATE_QUEUED: u16 = 2;

/// How many recycle-queue candidates one insert will try before giving up
/// and allocating a fresh page (bounds insert latency on queues full of
/// pages whose holes are too small for the record at hand).
const ADOPT_SCAN: usize = 8;

/// Marks a page as belonging to a record heap (distinct from the node and
/// prime-block magics, and unreachable by accident: it lives where a node
/// stores its low-bound tag, which is never a valid tag at this value).
///
/// Bumped from `0xB187` when the header grew the per-page LSN field (PR 5,
/// HDR 12 → 20): record data moved, so pages written under the old layout
/// must be *rejected* (their leaves then read as dangling record ids —
/// `Db::open` hard-errors) rather than silently reinterpreted with the
/// first record's bytes overlapping the new LSN field. Bumped again from
/// `0xB188` when the header grew the store's per-page CRC32 (HDR 20 → 24).
pub const HEAP_MAGIC: u16 = 0xB189;

/// Configuration for a [`RecordHeap`].
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Number of independent open-page shards insertion spreads over.
    /// More shards mean fewer threads share an allocator mutex; each shard
    /// pins at most one open page. Clamped to at least 1.
    pub shards: usize,
}

impl Default for HeapConfig {
    fn default() -> HeapConfig {
        HeapConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 16),
        }
    }
}

impl HeapConfig {
    /// A config with exactly `shards` insertion shards.
    pub fn with_shards(shards: usize) -> HeapConfig {
        HeapConfig {
            shards: shards.max(1),
        }
    }
}

/// Stable address of a record: page id in the high 32 bits, the slot's
/// generation in bits 16..32, and the slot index in the low 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(u64);

impl RecordId {
    fn new(page: PageId, gen: u16, slot: u16) -> RecordId {
        RecordId(u64::from(page.to_raw()) << 32 | u64::from(gen) << 16 | u64::from(slot))
    }

    /// On-disk form, as stored in leaf pairs.
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds from the on-disk form.
    pub fn from_raw(raw: u64) -> Option<RecordId> {
        PageId::from_raw((raw >> 32) as u32)?;
        Some(RecordId(raw))
    }

    fn page(self) -> PageId {
        PageId::from_raw((self.0 >> 32) as u32).expect("RecordId with nil page")
    }

    fn gen(self) -> u16 {
        (self.0 >> 16) as u16
    }

    fn slot(self) -> u16 {
        self.0 as u16
    }
}

fn read_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

fn write_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Tracked u16 write through a page-write guard (delta-loggable).
fn put_u16(w: &mut crate::store::PageWrite<'_>, off: usize, v: u16) {
    w.write_at(off, &v.to_le_bytes());
}

/// Offset of slot `i`'s directory entry in a page of `page_size` bytes.
fn slot_off(page_size: usize, slot: u16) -> usize {
    page_size - SLOT * (slot as usize + 1)
}

/// Whether a page image is a (structurally sane) heap page.
pub fn is_heap_page(b: &[u8]) -> bool {
    if b.len() < HDR + SLOT || read_u16(b, 6) != HEAP_MAGIC {
        return false;
    }
    let live = read_u16(b, 0) as usize;
    let nslots = read_u16(b, 2) as usize;
    let free_off = read_u16(b, 4) as usize;
    live <= nslots
        && HDR + nslots * SLOT <= b.len()
        && free_off >= HDR
        && free_off <= b.len() - nslots * SLOT
}

/// Number of freed (tombstoned) slots on a sane heap page.
fn freed_slots(b: &[u8]) -> u16 {
    read_u16(b, 2) - read_u16(b, 0)
}

/// A one-sweep inventory of the heap inside a store, from
/// [`RecordHeap::attach_with_inventory`]: which pages are heap pages,
/// every live record, and the pages holding none. Recovery consumes this
/// instead of re-scanning the store once per question.
#[derive(Debug, Default, Clone)]
pub struct HeapInventory {
    /// Every heap page (by magic).
    pub pages: Vec<PageId>,
    /// Every live record, page order.
    pub records: Vec<RecordId>,
    /// Heap pages with zero live records (crash leftovers).
    pub empty_pages: Vec<PageId>,
    /// Heap pages with at least one live record and at least one freed
    /// slot — re-enrolled into the allocation pool at attach.
    pub reusable_pages: Vec<PageId>,
}

/// One insertion shard: its own open page behind its own mutex, so
/// inserts on different shards never contend.
#[derive(Debug, Default)]
struct Shard {
    open: Mutex<Option<PageId>>,
}

/// A heap of byte records over a [`PageStore`] — its own, or one shared
/// with the index (the §2.1 dense-index arrangement behind `Db`).
#[derive(Debug)]
pub struct RecordHeap {
    store: Arc<PageStore>,
    /// Insertion shards; thread identity picks one.
    shards: Vec<Shard>,
    /// Partially-empty pages available for any shard to adopt (pages in
    /// state `QUEUED`; entries are validated under the page guard at pop
    /// time, so stale ids from races are harmless).
    recycle: Mutex<std::collections::VecDeque<PageId>>,
    /// Live heap pages, shared with the tree's verifier so page accounting
    /// still balances when index and heap cohabit one store.
    pages: Arc<AtomicUsize>,
    /// Gauge: live (non-freed) records across all pages.
    live: AtomicU64,
    /// Gauge: shards currently holding an open page.
    open_gauge: AtomicUsize,
    /// Source of slot generations (monotonic; wraps within u16, never 0).
    gen: AtomicU32,
}

/// Picks this thread's insertion shard: a process-wide ticket handed out on
/// first use, so a thread keeps hitting the same shard (and its warm open
/// page) for its whole life.
fn thread_ticket() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static TICKET: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    TICKET.with(|t| {
        let mut v = t.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

/// What one page-level placement attempt did.
enum Placed {
    /// The record landed; here is its id.
    Done(RecordId),
    /// No freed slot fits and the bump space is short: rotate.
    Full,
    /// (Adoption only) the queue entry was stale — the page is gone, no
    /// longer a queued heap page, or empty (released here).
    Stale,
}

impl RecordHeap {
    /// Creates a heap over the given store with default sharding (fresh —
    /// for a store that may already contain heap pages, use
    /// [`RecordHeap::attach`]).
    pub fn new(store: Arc<PageStore>) -> RecordHeap {
        RecordHeap::with_config(store, HeapConfig::default())
    }

    /// Creates a fresh heap with an explicit [`HeapConfig`].
    pub fn with_config(store: Arc<PageStore>, cfg: HeapConfig) -> RecordHeap {
        let shards = cfg.shards.max(1);
        RecordHeap {
            store,
            shards: (0..shards).map(|_| Shard::default()).collect(),
            recycle: Mutex::new(std::collections::VecDeque::new()),
            pages: Arc::new(AtomicUsize::new(0)),
            live: AtomicU64::new(0),
            open_gauge: AtomicUsize::new(0),
            gen: AtomicU32::new(0),
        }
    }

    /// Re-attaches to a store that may already hold heap pages (a durable
    /// reopen): counts them and seeds the generation counter past every
    /// stored generation, so reincarnated pages can never collide with ids
    /// minted before the restart. Call on a quiesced store.
    pub fn attach(store: Arc<PageStore>) -> Result<RecordHeap> {
        Ok(RecordHeap::attach_with_inventory(store)?.0)
    }

    /// [`RecordHeap::attach`], also returning a one-sweep [`HeapInventory`]
    /// so recovery (protected-page set, record GC, empty-page release) does
    /// not have to re-read the whole store once per question.
    pub fn attach_with_inventory(store: Arc<PageStore>) -> Result<(RecordHeap, HeapInventory)> {
        RecordHeap::attach_with_config(store, HeapConfig::default())
    }

    /// [`RecordHeap::attach_with_inventory`] with an explicit config.
    ///
    /// Besides counting pages and reseeding the generation counter, this
    /// normalizes every page's allocator state: whatever a crash left
    /// behind (`OPEN` pages of shards that no longer exist, `QUEUED` pages
    /// of a queue that lived in memory), pages restart `DETACHED`, and
    /// those with live records *and* freed slots are re-enrolled into the
    /// recycle queue so their holes stay allocatable.
    pub fn attach_with_config(
        store: Arc<PageStore>,
        cfg: HeapConfig,
    ) -> Result<(RecordHeap, HeapInventory)> {
        let heap = RecordHeap::with_config(store, cfg);
        let (inv, max_gen) = heap.sweep()?;
        heap.pages.store(inv.pages.len(), Ordering::Relaxed);
        heap.live.store(inv.records.len() as u64, Ordering::Relaxed);
        heap.gen.store(max_gen, Ordering::Relaxed);
        // Normalize allocator states (quiesced store; one journaled write
        // per page that needs it — typically a handful of crash leftovers).
        let mut requeue = Vec::new();
        for &pid in &inv.pages {
            let mut w = heap.store.write_page(pid, WriteIntent::Update)?;
            let (sane, reusable, state) = {
                let b = w.bytes();
                if !is_heap_page(b) {
                    (false, false, 0)
                } else {
                    (
                        true,
                        read_u16(b, 0) > 0 && freed_slots(b) > 0,
                        read_u16(b, 10),
                    )
                }
            };
            if !sane {
                continue; // raced nothing; sheer paranoia
            }
            let want = if reusable {
                STATE_QUEUED
            } else {
                STATE_DETACHED
            };
            if state != want {
                put_u16(&mut w, 10, want);
                w.commit()?;
            }
            if reusable {
                // Deferred past the loop so the recycle queue (a leaf lock
                // class) is never taken while `w`'s frame latch is held.
                requeue.push(pid);
            }
        }
        let mut rq = heap.lock_recycle();
        rq.extend(requeue);
        drop(rq);
        Ok((heap, inv))
    }

    /// The single whole-store enumeration everything else derives from:
    /// one read per allocated page, collecting heap pages, live records,
    /// empty/reusable pages and the maximum stored generation (page *and*
    /// slot generations — freed slots' too, since stale ids carrying them
    /// may still be in flight somewhere).
    fn sweep(&self) -> Result<(HeapInventory, u32)> {
        let mut inv = HeapInventory::default();
        let mut max_gen = 0u32;
        for pid in self.store.allocated_pages() {
            // The store is quiescent here, so a failed read is real damage
            // (I/O, checksum), never a race: dropping the page would hide
            // its records from repair and reconciliation.
            let page = self.store.read(pid)?;
            let b = page.bytes();
            if !is_heap_page(b) {
                continue;
            }
            inv.pages.push(pid);
            max_gen = max_gen.max(u32::from(read_u16(b, 8)));
            let live = read_u16(b, 0);
            if live == 0 {
                inv.empty_pages.push(pid);
            } else if freed_slots(b) > 0 {
                inv.reusable_pages.push(pid);
            }
            let nslots = read_u16(b, 2);
            for slot in 0..nslots {
                let so = slot_off(b.len(), slot);
                let gen = read_u16(b, so + 6);
                max_gen = max_gen.max(u32::from(gen));
                if read_u16(b, so + 4) != FREED {
                    inv.records.push(RecordId::new(pid, gen, slot));
                }
            }
        }
        Ok((inv, max_gen))
    }

    /// The largest record this heap can store.
    pub fn max_record_len(&self) -> usize {
        self.store.page_size() - HDR - SLOT
    }

    /// Underlying store (for stats).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Number of live heap pages.
    pub fn page_count(&self) -> usize {
        self.pages.load(Ordering::Relaxed)
    }

    /// Gauge: live (non-freed) records across all pages. Kept by the hot
    /// paths; [`RecordHeap::live_records`] is the ground-truth sweep.
    pub fn live_record_count(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Gauge: shards currently holding an open page (≤ `shard_count`).
    pub fn open_page_count(&self) -> usize {
        self.open_gauge.load(Ordering::Relaxed)
    }

    /// Gauge: pages currently enqueued for re-adoption (may include stale
    /// entries that the next pop will discard).
    pub fn queued_page_count(&self) -> usize {
        self.lock_recycle().len()
    }

    /// Number of insertion shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shared handle to the live-page counter (wire this into
    /// `TreeConfig::external_pages` when index and heap share a store, so
    /// the tree's verifier can balance its page accounting).
    pub fn pages_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.pages)
    }

    /// Notes a benign double-free observed by a caller (a record already
    /// freed by a racing overwrite/delete) in the store's heap stats.
    pub fn note_double_free(&self) {
        StoreStats::bump(&self.store.stats().heap_double_frees);
    }

    fn next_gen(&self) -> u16 {
        (self.gen.fetch_add(1, Ordering::Relaxed) % 0xFFFF) as u16 + 1
    }

    /// The only place the recycle queue is locked: registers with the
    /// latch auditor as `HeapRecycle` (a leaf — callers pop/push in a
    /// single statement, or under the shard they already hold).
    fn lock_recycle(&self) -> Audited<MutexGuard<'_, std::collections::VecDeque<PageId>>> {
        audit::audited(
            LockClass::HeapRecycle,
            &self.recycle as *const Mutex<std::collections::VecDeque<PageId>> as usize,
            || self.recycle.lock(),
        )
    }

    /// The only place a shard's open-page slot is locked: registers as
    /// `HeapShard`. The auditor enforces at most one per thread, and the
    /// whitelist lets the whole placement (frame write latch → slot latch
    /// → WAL, plus alloc and adoption) nest under it. Times only the
    /// contended path into the heap-wait histogram.
    fn lock_open<'a>(&self, shard: &'a Shard) -> Audited<MutexGuard<'a, Option<PageId>>> {
        audit::audited(LockClass::HeapShard, shard as *const Shard as usize, || {
            match shard.open.try_lock() {
                Some(g) => g,
                None => {
                    let t0 = Instant::now();
                    let g = shard.open.lock();
                    // Counted into the bucketed wait histogram too, so a
                    // windowed snapshot delta shows the tail, not just a sum.
                    self.store
                        .stats()
                        .record_heap_wait(t0.elapsed().as_nanos() as u64);
                    g
                }
            }
        })
    }

    /// Stores `data` and returns its id. Contends only with inserts on the
    /// same shard (thread identity picks the shard), never with `update`,
    /// `free`, or reads.
    pub fn insert(&self, data: &[u8]) -> Result<RecordId> {
        if data.len() > self.max_record_len() {
            return Err(StoreError::RecordTooLarge {
                len: data.len(),
                max: self.max_record_len(),
            });
        }
        let shard = &self.shards[thread_ticket() % self.shards.len()];
        let mut open = self.lock_open(shard);
        self.insert_open(&mut open, data)
    }

    /// The insert path once a shard's open-page slot is held.
    fn insert_open(&self, open: &mut Option<PageId>, data: &[u8]) -> Result<RecordId> {
        // 1. The shard's current open page.
        if let Some(pid) = *open {
            match self.place(pid, data, false)? {
                Placed::Done(rid) => return Ok(rid),
                Placed::Full | Placed::Stale => {
                    *open = None;
                    self.open_gauge.fetch_sub(1, Ordering::Relaxed);
                    self.retire(pid)?;
                }
            }
        }
        // 2. Adopt a queued partially-empty page (bounded scan; pages whose
        // holes don't fit stay queued for smaller records). A `QUEUED`
        // page's queue entry is its only route back into circulation, so
        // even on an error the popped entry must be re-pushed — dropping
        // it would strand the page (no later `free` re-enqueues a page
        // that is already `QUEUED`, and only an adopter may release one).
        let mut skipped: Vec<PageId> = Vec::new();
        let mut adopted = None;
        let mut failed = None;
        for _ in 0..ADOPT_SCAN {
            let Some(pid) = self.lock_recycle().pop_front() else {
                break;
            };
            match self.place(pid, data, true) {
                Ok(Placed::Done(rid)) => {
                    adopted = Some((pid, rid));
                    break;
                }
                Ok(Placed::Full) => skipped.push(pid),
                Ok(Placed::Stale) => {}
                Err(e) => {
                    skipped.push(pid);
                    failed = Some(e);
                    break;
                }
            }
        }
        if !skipped.is_empty() {
            let mut q = self.lock_recycle();
            for pid in skipped {
                q.push_back(pid);
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if let Some((pid, rid)) = adopted {
            *open = Some(pid);
            self.open_gauge.fetch_add(1, Ordering::Relaxed);
            StoreStats::bump(&self.store.stats().heap_pages_recycled);
            return Ok(rid);
        }
        // 3. A fresh page (a max-sized record always fits one).
        let pid = self.fresh_page()?;
        *open = Some(pid);
        self.open_gauge.fetch_add(1, Ordering::Relaxed);
        match self.place(pid, data, false)? {
            Placed::Done(rid) => Ok(rid),
            Placed::Full | Placed::Stale => Err(StoreError::corrupt_at(
                "fresh heap page rejected a size-checked record",
                pid,
            )),
        }
    }

    /// Allocates and initializes a new open heap page.
    fn fresh_page(&self) -> Result<PageId> {
        let pid = self.store.alloc()?;
        let mut page = Page::zeroed(self.store.page_size());
        let b = page.bytes_mut();
        write_u16(b, 4, HDR as u16); // free_off
        write_u16(b, 6, HEAP_MAGIC);
        write_u16(b, 8, self.next_gen());
        write_u16(b, 10, STATE_OPEN);
        self.store.put(pid, &page)?;
        self.pages.fetch_add(1, Ordering::Relaxed);
        Ok(pid)
    }

    /// One placement attempt on one page, under its write guard: best-fit
    /// reuse of a freed slot first, bump allocation of a new slot second.
    /// With `adopt`, the page must be a `QUEUED` heap page and is flipped
    /// to `OPEN` in the same committed write (an empty queued page is
    /// released here instead — its queue entry was its last reference).
    fn place(&self, pid: PageId, data: &[u8], adopt: bool) -> Result<Placed> {
        let mut w = match self.store.write_page(pid, WriteIntent::Update) {
            Ok(w) => w,
            // An adopted candidate may legitimately be gone (released after
            // its last record was freed while the entry sat in the queue).
            Err(StoreError::PageFreed(_) | StoreError::OutOfBounds(_)) if adopt => {
                return Ok(Placed::Stale)
            }
            Err(e) => return Err(e),
        };
        let page_size = w.len();
        if adopt {
            let b = w.bytes();
            if !is_heap_page(b) || read_u16(b, 10) != STATE_QUEUED {
                return Ok(Placed::Stale); // reincarnated or already adopted
            }
            if read_u16(b, 0) == 0 {
                // Emptied while queued; nothing references it but the queue
                // entry we just popped. Release it for real.
                drop(w);
                self.release_page(pid)?;
                return Ok(Placed::Stale);
            }
        }
        let (live, nslots, free_off) = {
            let b = w.bytes();
            (read_u16(b, 0), read_u16(b, 2), read_u16(b, 4) as usize)
        };

        // Best-fit over tombstoned slots (only when some exist).
        if nslots > live {
            let mut best: Option<(u16, usize, usize)> = None; // slot, off, cap
            {
                let b = w.bytes();
                for slot in 0..nslots {
                    let so = slot_off(page_size, slot);
                    if read_u16(b, so + 4) != FREED {
                        continue;
                    }
                    let cap = read_u16(b, so + 2) as usize;
                    if cap >= data.len() && best.is_none_or(|(_, _, bcap)| cap < bcap) {
                        best = Some((slot, read_u16(b, so) as usize, cap));
                    }
                }
            }
            if let Some((slot, off, _)) = best {
                w.write_at(off, data);
                let so = slot_off(page_size, slot);
                let gen = self.next_gen();
                put_u16(&mut w, so + 4, data.len() as u16);
                put_u16(&mut w, so + 6, gen);
                put_u16(&mut w, 0, live + 1);
                if adopt {
                    put_u16(&mut w, 10, STATE_OPEN);
                }
                w.commit()?;
                self.live.fetch_add(1, Ordering::Relaxed);
                StoreStats::bump(&self.store.stats().heap_slots_reused);
                return Ok(Placed::Done(RecordId::new(pid, gen, slot)));
            }
        }

        // Bump allocation of a new slot.
        let dir_floor = page_size - SLOT * (nslots as usize + 1);
        if free_off + data.len() <= dir_floor && (nslots as usize) < (page_size / SLOT) {
            w.write_at(free_off, data);
            let so = slot_off(page_size, nslots);
            let gen = self.next_gen();
            put_u16(&mut w, so, free_off as u16);
            put_u16(&mut w, so + 2, data.len() as u16); // cap
            put_u16(&mut w, so + 4, data.len() as u16); // len
            put_u16(&mut w, so + 6, gen);
            put_u16(&mut w, 0, live + 1);
            put_u16(&mut w, 2, nslots + 1);
            put_u16(&mut w, 4, (free_off + data.len()) as u16);
            if adopt {
                put_u16(&mut w, 10, STATE_OPEN);
            }
            w.commit()?;
            self.live.fetch_add(1, Ordering::Relaxed);
            return Ok(Placed::Done(RecordId::new(pid, gen, nslots)));
        }
        Ok(Placed::Full)
    }

    /// Rotates a full open page out of its shard: released if everything on
    /// it was freed while it was open, re-queued if it has reusable holes,
    /// detached otherwise (a later `free` will re-enroll it).
    fn retire(&self, pid: PageId) -> Result<()> {
        let mut w = self.store.write_page(pid, WriteIntent::Update)?;
        let state = {
            let b = w.bytes();
            if !is_heap_page(b) {
                return Err(StoreError::corrupt_at(
                    "open heap page lost its header",
                    pid,
                ));
            }
            if read_u16(b, 0) == 0 {
                drop(w); // rollback untouched; the page itself goes away
                return self.release_page(pid);
            }
            if freed_slots(b) > 0 {
                STATE_QUEUED
            } else {
                STATE_DETACHED
            }
        };
        put_u16(&mut w, 10, state);
        w.commit()?;
        if state == STATE_QUEUED {
            self.lock_recycle().push_back(pid);
        }
        Ok(())
    }

    /// Returns a page to the store and maintains the gauges.
    fn release_page(&self, pid: PageId) -> Result<()> {
        self.store.free(pid)?;
        self.pages.fetch_sub(1, Ordering::Relaxed);
        StoreStats::bump(&self.store.stats().heap_pages_released);
        Ok(())
    }

    /// Validates `rid` against a page image and returns `(off, len, cap)`
    /// of the record's bytes. Any mismatch — not a heap page (freed +
    /// reallocated to the index), freed slot, wrong generation (slot or
    /// page reused since), out-of-range slot — is `RecordMissing`.
    fn slot_entry(b: &[u8], rid: RecordId) -> Result<(usize, usize, usize)> {
        if !is_heap_page(b) || rid.slot() >= read_u16(b, 2) {
            return Err(StoreError::RecordMissing(rid.to_raw()));
        }
        let so = slot_off(b.len(), rid.slot());
        let len = read_u16(b, so + 4);
        if len == FREED || read_u16(b, so + 6) != rid.gen() {
            return Err(StoreError::RecordMissing(rid.to_raw()));
        }
        let off = read_u16(b, so) as usize;
        let cap = read_u16(b, so + 2) as usize;
        let len = len as usize;
        if off + cap > b.len() || len > cap {
            return Err(StoreError::corrupt_at(
                "record extends past page end",
                rid.page(),
            ));
        }
        Ok((off, len, cap))
    }

    fn map_page_err(rid: RecordId) -> impl FnOnce(StoreError) -> StoreError {
        move |e| match e {
            StoreError::PageFreed(_) | StoreError::OutOfBounds(_) => {
                StoreError::RecordMissing(rid.to_raw())
            }
            other => other,
        }
    }

    /// Reads a record through `f` without copying it: the bytes are
    /// borrowed straight from the page's pinned buffer-pool frame (the
    /// PR 2 [`crate::PageRef`] guard), which stays pinned for exactly the
    /// duration of the call. Latch-only — never blocked by writers of
    /// other pages.
    pub fn read_with<R>(&self, rid: RecordId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let page = self
            .store
            .read(rid.page())
            .map_err(Self::map_page_err(rid))?;
        let b = page.bytes();
        let (off, len, _) = Self::slot_entry(b, rid)?;
        Ok(f(&b[off..off + len]))
    }

    /// Reads a record into an owned buffer (a copying convenience over
    /// [`RecordHeap::read_with`]).
    pub fn read(&self, rid: RecordId) -> Result<Vec<u8>> {
        self.read_with(rid, |b| b.to_vec())
    }

    /// Overwrites a record. When the new value fits the slot's extent it is
    /// rewritten **in place** and `rid` stays valid (one journaled page
    /// write, no index involvement, no heap-level lock). Otherwise `data`
    /// is stored as a new record and its id returned — **without** freeing
    /// the old record: the caller re-points whatever references the old id
    /// first and then frees it, so concurrent readers never chase a
    /// dangling reference.
    pub fn update(&self, rid: RecordId, data: &[u8]) -> Result<RecordId> {
        if data.len() > self.max_record_len() {
            return Err(StoreError::RecordTooLarge {
                len: data.len(),
                max: self.max_record_len(),
            });
        }
        {
            let mut w = self
                .store
                .write_page(rid.page(), WriteIntent::Update)
                .map_err(Self::map_page_err(rid))?;
            let page_size = w.len();
            match Self::slot_entry(w.bytes(), rid) {
                Ok((off, _, cap)) if data.len() <= cap => {
                    w.write_at(off, data);
                    put_u16(
                        &mut w,
                        slot_off(page_size, rid.slot()) + 4,
                        data.len() as u16,
                    );
                    w.commit()?;
                    return Ok(rid);
                }
                Ok(_) => {} // does not fit: guard rolls back untouched
                Err(e) => return Err(e),
            }
        }
        // The guard is dropped before insertion: insert takes a shard
        // mutex and then another page's guard, and holding this page's
        // guard across that would invert the (shard, guard) order against
        // a concurrent insert targeting this page.
        self.insert(data)
    }

    /// Frees a record. Touches only the record's page (no heap-level lock):
    /// the slot is tombstoned in place, a detached page gaining its first
    /// hole is re-enrolled into the recycle queue, and a detached page
    /// losing its last record is released to the store.
    pub fn free(&self, rid: RecordId) -> Result<()> {
        let pid = rid.page();
        let mut w = self
            .store
            .write_page(pid, WriteIntent::Update)
            .map_err(Self::map_page_err(rid))?;
        let (live, state) = {
            let b = w.bytes();
            Self::slot_entry(b, rid)?;
            (read_u16(b, 0) - 1, read_u16(b, 10))
        };
        if live == 0 && state == STATE_DETACHED {
            // Whole page dead and in no pool: abandon the in-place edit
            // (the guard rolls back untouched) and release the page itself.
            // OPEN pages are their shard's to retire; QUEUED pages are
            // released by the adopter that pops their entry (freeing them
            // here would race that adopter, which validates under the
            // guard *before* this rollback becomes visible).
            drop(w);
            self.live.fetch_sub(1, Ordering::Relaxed);
            return self.release_page(pid);
        }
        let so = slot_off(w.len(), rid.slot());
        put_u16(&mut w, so + 4, FREED);
        put_u16(&mut w, 0, live);
        let enqueue = state == STATE_DETACHED;
        if enqueue {
            put_u16(&mut w, 10, STATE_QUEUED);
        }
        w.commit()?;
        self.live.fetch_sub(1, Ordering::Relaxed);
        if enqueue {
            self.lock_recycle().push_back(pid);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Whole-heap enumeration (recovery / GC; quiesced stores only).
    // ------------------------------------------------------------------

    /// Ids of all heap pages in the store (pages carrying [`HEAP_MAGIC`]).
    /// Recovery uses this to shield heap pages from the tree's orphan
    /// collection. Call on a quiesced store.
    pub fn heap_pages(&self) -> Result<Vec<PageId>> {
        Ok(self.sweep()?.0.pages)
    }

    /// Every live record in the heap. Call on a quiesced store.
    pub fn live_records(&self) -> Result<Vec<RecordId>> {
        Ok(self.sweep()?.0.records)
    }

    /// Releases heap pages holding no live records (crash leftovers: a page
    /// initialized, or emptied by GC, whose release never made it to the
    /// log). Returns how many were freed. Call on a quiesced store.
    pub fn release_empty_pages(&self) -> Result<usize> {
        let (inv, _) = self.sweep()?;
        self.release_if_empty(&inv.empty_pages)
    }

    /// Releases those of `candidates` that are **detached** heap pages
    /// currently holding no live records (a stale candidate list is safe:
    /// each page is re-validated against its current image first).
    ///
    /// Only `DETACHED` pages are eligible, which is what makes the
    /// check-then-free window race-free: an `OPEN` page is its shard's to
    /// retire, and a `QUEUED` page may only be released by the adopter
    /// that pops its (single) queue entry — freeing one here could race
    /// that adopter into double-freeing a page the store has already
    /// re-allocated. Empty pages left `QUEUED` by churn are reclaimed by
    /// the next adopter to reach them, or normalized to `DETACHED` by the
    /// next [`RecordHeap::attach`] (which is what recovery calls before
    /// using this).
    pub fn release_if_empty(&self, candidates: &[PageId]) -> Result<usize> {
        let mut freed = 0usize;
        for &pid in candidates {
            let release = {
                let Ok(page) = self.store.read(pid) else {
                    continue;
                };
                let b = page.bytes();
                is_heap_page(b) && read_u16(b, 0) == 0 && read_u16(b, 10) == STATE_DETACHED
            };
            if release {
                self.release_page(pid)?;
                freed += 1;
            }
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn heap(page_size: usize) -> RecordHeap {
        RecordHeap::new(PageStore::new(StoreConfig::with_page_size(page_size)))
    }

    #[test]
    fn insert_read_roundtrip() {
        let h = heap(256);
        let a = h.insert(b"hello").unwrap();
        let b = h.insert(b"world, this is a longer record").unwrap();
        assert_eq!(h.read(a).unwrap(), b"hello");
        assert_eq!(h.read(b).unwrap(), b"world, this is a longer record");
        assert_eq!(h.live_record_count(), 2);
    }

    #[test]
    fn record_id_roundtrip() {
        let h = heap(256);
        let a = h.insert(b"x").unwrap();
        let raw = a.to_raw();
        assert_eq!(RecordId::from_raw(raw), Some(a));
        assert_eq!(RecordId::from_raw(0), None); // nil page
    }

    #[test]
    fn spills_to_new_pages() {
        let h = heap(128);
        let max = h.max_record_len();
        let ids: Vec<_> = (0..20)
            .map(|i| h.insert(&vec![i as u8; max / 2]).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.read(*id).unwrap(), vec![i as u8; max / 2]);
        }
        assert!(h.store().live_pages() > 1);
        assert_eq!(h.page_count(), h.store().live_pages());
    }

    #[test]
    fn too_large_record_is_rejected() {
        let h = heap(128);
        let max = h.max_record_len();
        assert!(matches!(
            h.insert(&vec![0; max + 1]),
            Err(StoreError::RecordTooLarge { .. })
        ));
        assert!(h.insert(&vec![0; max]).is_ok());
    }

    #[test]
    fn free_makes_record_missing() {
        let h = heap(256);
        let a = h.insert(b"doomed").unwrap();
        let b = h.insert(b"survivor").unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.read(a), Err(StoreError::RecordMissing(_))));
        assert!(matches!(h.free(a), Err(StoreError::RecordMissing(_))));
        assert_eq!(h.read(b).unwrap(), b"survivor");
        assert_eq!(h.live_record_count(), 1);
    }

    #[test]
    fn fully_freed_page_is_released() {
        let h = heap(128);
        let max = h.max_record_len();
        // Fill page 1 and move the open page onward.
        let a = h.insert(&vec![1; max]).unwrap();
        let b = h.insert(&vec![2; max]).unwrap();
        let live_before = h.store().live_pages();
        h.free(a).unwrap();
        assert_eq!(h.store().live_pages(), live_before - 1);
        h.free(b).ok(); // b's page may be the open page; freeing it is fine
    }

    #[test]
    fn empty_record_roundtrip() {
        let h = heap(128);
        let a = h.insert(b"").unwrap();
        assert_eq!(h.read(a).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn read_with_is_zero_copy_and_validates() {
        let h = heap(256);
        let a = h.insert(b"payload bytes").unwrap();
        let len = h.read_with(a, |b| b.len()).unwrap();
        assert_eq!(len, 13);
        let first = h.read_with(a, |b| b[0]).unwrap();
        assert_eq!(first, b'p');
        h.free(a).unwrap();
        assert!(matches!(
            h.read_with(a, |b| b.len()),
            Err(StoreError::RecordMissing(_))
        ));
    }

    #[test]
    fn update_in_place_keeps_the_id() {
        let h = heap(256);
        let a = h.insert(b"long original value").unwrap();
        let b = h.update(a, b"short").unwrap();
        assert_eq!(a, b, "shrinking update must stay in place");
        assert_eq!(h.read(a).unwrap(), b"short");
        // Same-length update also stays in place.
        let c = h.update(a, b"SHORT").unwrap();
        assert_eq!(a, c);
        assert_eq!(h.read(a).unwrap(), b"SHORT");
        // Growing back *within the original extent* stays in place too —
        // the slot keeps its capacity across shrinks.
        let d = h.update(a, b"long original valu!").unwrap();
        assert_eq!(a, d, "regrow within capacity must stay in place");
        assert_eq!(h.read(a).unwrap(), b"long original valu!");
    }

    #[test]
    fn growing_update_moves_without_freeing_the_old_record() {
        let h = heap(256);
        let a = h.insert(b"tiny").unwrap();
        let b = h
            .update(a, b"a value that certainly does not fit in four bytes")
            .unwrap();
        assert_ne!(a, b);
        // The old record still reads (the caller frees it after re-pointing).
        assert_eq!(h.read(a).unwrap(), b"tiny");
        assert_eq!(
            h.read(b).unwrap(),
            b"a value that certainly does not fit in four bytes"
        );
        h.free(a).unwrap();
        assert_eq!(
            h.read(b).unwrap(),
            b"a value that certainly does not fit in four bytes"
        );
    }

    #[test]
    fn update_of_missing_record_errors() {
        let h = heap(256);
        let a = h.insert(b"x").unwrap();
        h.free(a).unwrap();
        assert!(matches!(
            h.update(a, b"y"),
            Err(StoreError::RecordMissing(_))
        ));
    }

    #[test]
    fn freed_slot_is_reused_in_page() {
        let h = heap(256);
        let a = h.insert(&[1u8; 40]).unwrap();
        let _b = h.insert(&[2u8; 40]).unwrap();
        let pages_before = h.store().live_pages();
        let reused_before = h.store().stats().snapshot().heap_slots_reused;
        h.free(a).unwrap();
        // A same-size insert lands in a's hole: same page, same slot, new
        // generation — and the stale id keeps failing.
        let c = h.insert(&[3u8; 40]).unwrap();
        assert_eq!(c.page(), a.page());
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c.gen(), a.gen(), "reuse must mint a fresh generation");
        assert_eq!(h.store().live_pages(), pages_before, "no page allocated");
        assert_eq!(
            h.store().stats().snapshot().heap_slots_reused,
            reused_before + 1
        );
        assert!(matches!(h.read(a), Err(StoreError::RecordMissing(_))));
        assert_eq!(h.read(c).unwrap(), vec![3u8; 40]);
    }

    #[test]
    fn best_fit_picks_the_smallest_hole() {
        let h = heap(512);
        let small = h.insert(&[1u8; 16]).unwrap();
        let big = h.insert(&[2u8; 200]).unwrap();
        let _keep = h.insert(&[3u8; 16]).unwrap();
        h.free(big).unwrap();
        h.free(small).unwrap();
        // A 10-byte record fits both holes; best fit takes the 16-byte one.
        let c = h.insert(&[4u8; 10]).unwrap();
        assert_eq!(c.slot(), small.slot(), "best fit must pick the small hole");
        // The big hole still takes a big record.
        let d = h.insert(&[5u8; 180]).unwrap();
        assert_eq!(d.slot(), big.slot());
    }

    #[test]
    fn retired_page_is_recycled_after_frees() {
        let h = heap(256);
        // 100-byte records: exactly two fit a 256-byte page.
        let rec = 100usize;
        let a1 = h.insert(&vec![1; rec]).unwrap();
        let a2 = h.insert(&vec![2; rec]).unwrap();
        let p = a1.page();
        assert_eq!(a2.page(), p);
        let spill = h.insert(&vec![3; rec]).unwrap();
        assert_ne!(spill.page(), p, "P must be full and rotated out");
        let pages_before = h.store().live_pages();
        // Freeing one record on detached P re-enrolls it into the pool.
        h.free(a1).unwrap();
        assert_eq!(h.queued_page_count(), 1);
        // The next inserts fill the open page, then adopt P instead of
        // allocating fresh.
        let mut landed = Vec::new();
        for i in 0..3u8 {
            landed.push(h.insert(&vec![10 + i; rec]).unwrap());
        }
        assert!(
            landed.iter().any(|r| r.page() == p),
            "an insert must land back on the recycled page"
        );
        assert!(
            h.store().live_pages() <= pages_before + 1,
            "recycling must curb page growth"
        );
        let recycled = h.store().stats().snapshot().heap_pages_recycled;
        assert!(recycled >= 1, "recycle stat must count the adoption");
    }

    #[test]
    fn generation_detects_page_reincarnation() {
        let h = heap(128);
        let max = h.max_record_len();
        // Fill a page and move the open page past it, then free it.
        let a = h.insert(&vec![1; max]).unwrap();
        let _b = h.insert(&vec![2; max]).unwrap();
        h.free(a).unwrap();
        // Reincarnate the same store page as a fresh heap page.
        let c = h.insert(&vec![3; max]).unwrap();
        assert_eq!(c.page(), a.page(), "store must reuse the freed page");
        // The stale id must not resolve to the new page's record.
        assert!(matches!(h.read(a), Err(StoreError::RecordMissing(_))));
        assert_eq!(h.read(c).unwrap(), vec![3; max]);
    }

    #[test]
    fn attach_counts_pages_and_advances_generations() {
        // attach is exercised end-to-end by the db crate; this covers the
        // seeding contract in isolation.
        let store = PageStore::new(StoreConfig::with_page_size(128));
        let max;
        let (a, gen_a);
        {
            let h = RecordHeap::new(Arc::clone(&store));
            max = h.max_record_len();
            a = h.insert(&vec![7; max]).unwrap();
            let _ = h.insert(&vec![8; max]).unwrap();
            gen_a = a.gen();
        }
        let h2 = RecordHeap::attach(Arc::clone(&store)).unwrap();
        assert_eq!(h2.page_count(), 2);
        assert_eq!(h2.live_record_count(), 2);
        assert_eq!(h2.read(a).unwrap(), vec![7; max]);
        // New pages get generations strictly past everything stored.
        let fresh = h2.insert(&vec![9; max]).unwrap();
        assert!(fresh.gen() > gen_a);
    }

    #[test]
    fn attach_reenrolls_pages_with_holes() {
        let store = PageStore::new(StoreConfig::with_page_size(256));
        let (keep, hole);
        {
            let h = RecordHeap::new(Arc::clone(&store));
            keep = h.insert(&[1u8; 60]).unwrap();
            hole = h.insert(&[2u8; 60]).unwrap();
            h.free(hole).unwrap();
        }
        let (h2, inv) = RecordHeap::attach_with_inventory(Arc::clone(&store)).unwrap();
        assert_eq!(inv.reusable_pages, vec![keep.page()]);
        assert_eq!(h2.queued_page_count(), 1);
        // The hole is allocatable right after attach (the open shard page
        // is fresh... no — there is none: the first insert adopts).
        let c = h2.insert(&[3u8; 60]).unwrap();
        assert_eq!(c.page(), hole.page());
        assert_eq!(c.slot(), hole.slot());
        assert!(matches!(h2.read(hole), Err(StoreError::RecordMissing(_))));
        assert_eq!(h2.read(keep).unwrap(), vec![1u8; 60]);
    }

    #[test]
    fn enumeration_sees_exactly_the_live_records() {
        let h = heap(256);
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        let c = h.insert(b"c").unwrap();
        h.free(b).unwrap();
        let mut live = h.live_records().unwrap();
        live.sort();
        let mut want = vec![a, c];
        want.sort();
        assert_eq!(live, want);
        assert_eq!(h.live_record_count(), 2);
    }

    #[test]
    fn release_empty_pages_frees_crash_leftovers() {
        let h = heap(128);
        let max = h.max_record_len();
        let a = h.insert(&vec![1; max]).unwrap(); // page 1 full
        let b = h.insert(&vec![2; max]).unwrap(); // page 2 = open page
        h.free(a).ok();
        let _ = b;
        // Whatever is left empty and not open gets released.
        let before = h.store().live_pages();
        let freed = h.release_empty_pages().unwrap();
        assert_eq!(h.store().live_pages(), before - freed);
        assert_eq!(h.page_count(), h.store().live_pages());
    }

    #[test]
    fn page_emptied_while_open_is_reused_not_leaked() {
        let h = heap(128);
        let max = h.max_record_len();
        // One near-page-size record: its page becomes (and stays) the open
        // page. Freeing it must not release the page (it is open)...
        let a = h.insert(&vec![1; max]).unwrap();
        h.free(a).unwrap();
        let live_after_free = h.store().live_pages();
        // ...and the next insert reuses the freed slot in place — no new
        // page, no stranding.
        let b = h.insert(&vec![2; max]).unwrap();
        assert_eq!(
            h.store().live_pages(),
            live_after_free,
            "the emptied open page must be reused, not replaced"
        );
        assert_eq!(b.page(), a.page());
        assert_eq!(h.page_count(), h.store().live_pages());
        assert_eq!(h.read(b).unwrap(), vec![2; max]);
        // Churning the pattern never accumulates pages.
        for i in 0..20u8 {
            let r = h.insert(&vec![i; max]).unwrap();
            h.free(r).unwrap();
        }
        assert!(
            h.page_count() <= 2,
            "delete-heavy churn must not leak pages"
        );
    }

    #[test]
    fn inventory_matches_itemized_enumeration() {
        let store = PageStore::new(StoreConfig::with_page_size(128));
        let max;
        {
            let h = RecordHeap::new(Arc::clone(&store));
            max = h.max_record_len();
            let a = h.insert(&vec![1; max]).unwrap();
            let _b = h.insert(&vec![2; max / 2]).unwrap();
            let _c = h.insert(&vec![3; max / 2]).unwrap();
            h.free(a).ok();
        }
        let (h, inv) = RecordHeap::attach_with_inventory(store).unwrap();
        assert_eq!(inv.pages, h.heap_pages().unwrap());
        assert_eq!(inv.records, h.live_records().unwrap());
        for pid in &inv.empty_pages {
            assert!(inv.pages.contains(pid));
        }
        assert_eq!(
            h.release_if_empty(&inv.empty_pages).unwrap(),
            inv.empty_pages.len()
        );
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        use std::sync::Arc;
        let h = Arc::new(RecordHeap::with_config(
            PageStore::new(StoreConfig::with_page_size(512)),
            HeapConfig::with_shards(4),
        ));
        let mut handles = vec![];
        for t in 0u8..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut ids = vec![];
                for i in 0u8..50 {
                    ids.push((h.insert(&[t, i]).unwrap(), vec![t, i]));
                }
                ids
            }));
        }
        let all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for (rid, want) in all {
            assert_eq!(h.read(rid).unwrap(), want);
        }
        assert_eq!(h.live_record_count(), 200);
        assert!(h.open_page_count() >= 1);
    }

    #[test]
    fn shards_isolate_open_pages() {
        // With as many shards as threads, each thread's records cluster on
        // its own open page(s): two threads never interleave on one page
        // unless rotation hands a page over through the recycle queue
        // (impossible here — nothing is freed).
        let h = Arc::new(RecordHeap::with_config(
            PageStore::new(StoreConfig::with_page_size(4096)),
            HeapConfig::with_shards(4),
        ));
        let mut handles = vec![];
        for t in 0u8..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                // The shard this thread maps to (tickets are process-wide,
                // so two test threads may share a shard — that is fine; the
                // isolation property is between *shards*).
                let shard = thread_ticket() % h.shard_count();
                (0..64u8)
                    .map(|i| (shard, h.insert(&[t, i, 0, 0]).unwrap()))
                    .collect::<Vec<_>>()
            }));
        }
        let mut owner: std::collections::HashMap<PageId, usize> = std::collections::HashMap::new();
        for (shard, rid) in handles.into_iter().flat_map(|h| h.join().unwrap()) {
            let prev = owner.insert(rid.page(), shard);
            assert!(
                prev.is_none() || prev == Some(shard),
                "page {:?} written by two shards without recycling",
                rid.page()
            );
        }
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::store::StoreConfig;
    use proptest::prelude::*;

    proptest! {
        /// Reading arbitrary record ids from a populated heap never panics.
        #[test]
        fn read_arbitrary_rids_never_panics(raw in any::<u64>(), n_records in 0usize..20) {
            let h = RecordHeap::new(PageStore::new(StoreConfig::with_page_size(256)));
            for i in 0..n_records {
                h.insert(&[i as u8; 16]).unwrap();
            }
            if let Some(rid) = RecordId::from_raw(raw) {
                let _ = h.read(rid);
            }
        }

        /// Random insert/update/free interleavings keep the heap consistent
        /// (now with slot reuse churning under them).
        #[test]
        fn insert_update_free_interleavings(ops in proptest::collection::vec(0u8..3, 1..100)) {
            let h = RecordHeap::new(PageStore::new(StoreConfig::with_page_size(256)));
            let mut live: Vec<(RecordId, Vec<u8>)> = Vec::new();
            let mut tag = 0u8;
            for op in ops {
                if op == 0 || live.is_empty() {
                    tag = tag.wrapping_add(1);
                    let rid = h.insert(&[tag; 8]).unwrap();
                    live.push((rid, vec![tag; 8]));
                } else if op == 1 {
                    let i = live.len() / 2;
                    tag = tag.wrapping_add(1);
                    let len = 1 + (tag as usize % 12);
                    let data = vec![tag; len];
                    let rid = h.update(live[i].0, &data).unwrap();
                    if rid != live[i].0 {
                        h.free(live[i].0).unwrap();
                    }
                    live[i] = (rid, data);
                } else {
                    let (rid, _) = live.swap_remove(live.len() / 2);
                    h.free(rid).unwrap();
                }
            }
            prop_assert_eq!(h.live_record_count() as usize, live.len());
            for (rid, data) in live {
                prop_assert_eq!(h.read(rid).unwrap(), data);
            }
        }
    }
}
