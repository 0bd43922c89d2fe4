//! Page/block storage substrate for the Sagiv B\*-tree reproduction.
//!
//! This crate implements the storage and synchronization model of §2.2 of
//! Sagiv, *Concurrent Operations on B\*-Trees with Overtaking* (JCSS 1986):
//!
//! * Each tree node corresponds to a **page** of fixed size. [`PageStore::get`]
//!   returns the contents of a page and [`PageStore::put`] overwrites it;
//!   both are **indivisible** (a per-page latch is held only for the duration
//!   of the copy), so "reading and writing of nodes are indivisible
//!   operations".
//! * A process can [`lock`](PageStore::lock) a page. The lock prevents other
//!   processes from locking the same page, but — crucially, and unlike
//!   ordinary mutexes — it **does not prevent other processes from reading**
//!   the locked page. Locks are explicit `lock`/`unlock` pairs (not RAII)
//!   because the paper's protocols release locks in different scopes than
//!   they acquire them.
//! * [`Session`]s model the paper's *processes*: they carry the start
//!   timestamp used by §5.3's deferred reclamation and record the
//!   instrumentation (maximum number of simultaneously held locks, restarts,
//!   link follows) that the paper's claims are stated in terms of.
//! * [`reclaim::DeferredFreeList`] implements §5.3: a deleted node is
//!   released only when every process that could still read it has finished.
//! * [`heap::RecordHeap`] stores the records that leaf pairs `(v, p)` point
//!   to, making the tree a *dense index* exactly as §2.1 describes.
//! * [`pool`] is the buffer pool: a fixed table of page frames with pin
//!   counts and CLOCK replacement. [`PageStore::read`] pins a frame and
//!   returns a zero-copy [`PageRef`] guard; writes go through the frame
//!   (write-back) and reach the backend on eviction or [`PageStore::sync`].
//! * [`rwlock`] provides shared/exclusive page locks. The Sagiv and
//!   Lehman–Yao protocols never need them; they exist for the top-down
//!   (Bayer–Schkolnick-style) baseline the paper's introduction compares
//!   against.
//! * [`audit`] (behind the `latch-audit` feature) machine-checks the latch
//!   protocol at runtime: lock-class order, frame-latch level coupling with
//!   the overtaking exception, and seqlock/snapshot discipline.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod audit;
pub mod backend;
pub mod clock;
pub mod crc;
pub mod error;
pub(crate) mod flusher;
pub mod health;
pub mod heap;
pub mod hist;
pub mod journal;
pub mod page;
pub mod pool;
pub mod reclaim;
pub mod rwlock;
pub mod session;
pub(crate) mod slots;
pub mod stats;
pub mod store;

pub use backend::{MemBackend, PageBackend};
pub use clock::LogicalClock;
pub use error::{Result, StoreError};
pub use health::StoreHealth;
pub use heap::{is_heap_page, HeapConfig, HeapInventory, RecordHeap, RecordId, HEAP_MAGIC};
pub use hist::{fmt_ns, HistSnapshot, WaitHist, HIST_BUCKETS};
pub use journal::{DeltaRange, Journal};
pub use page::{
    page_lsn, set_page_lsn, stamp_page_crc, verify_page_crc, Page, PageId, PAGE_CRC_LEN,
    PAGE_CRC_OFFSET, PAGE_LSN_LEN, PAGE_LSN_OFFSET, PAGE_RESERVED_END,
};
pub use reclaim::DeferredFreeList;
pub use session::{Session, SessionRegistry, SessionStats};
pub use stats::{Counter, StatsSnapshot, StoreStats};
pub use store::{PageRef, PageStamp, PageStore, PageWrite, StoreConfig, WriteIntent};
