//! The B\*-tree handle and low-level page plumbing.
//!
//! [`BLinkTree`] owns the page store, the prime block, the compression
//! queue, the deferred free list and the session registry. The actual
//! protocols live in sibling modules: traversal in [`crate::traverse`],
//! the logical operations in [`crate::ops`], compression in
//! [`crate::compress`].

use crate::compress::queue::CompressionQueue;
use crate::config::TreeConfig;
use crate::counters::TreeCounters;
use crate::error::{Result, TreeError};
use crate::node::{Node, NodeView};
use crate::prime::PrimeBlock;
use blink_pagestore::{
    DeferredFreeList, LogicalClock, PageId, PageStamp, PageStore, Session, SessionRegistry,
    StoreError, WriteIntent,
};
use std::sync::Arc;

/// Outcome of an insertion (§3.2: an insertion of an existing key reports
/// "v is already in the tree" and makes no changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The pair was added.
    Inserted,
    /// The key was already present; nothing changed.
    Duplicate,
}

/// Test-only hook fired between an optimistic node snapshot and its
/// revalidation (see `BLinkTree::read_view`): lets a test
/// place a concurrent split deterministically inside the validation
/// window. Fires at most once per arming, then disarms itself. The
/// `AtomicBool` gate keeps the cost on the hot path to one relaxed load.
#[doc(hidden)]
#[derive(Default)]
pub struct OptimisticTestHook {
    armed: std::sync::atomic::AtomicBool,
    f: parking_lot::Mutex<Option<Box<dyn FnMut() + Send>>>,
}

impl OptimisticTestHook {
    /// Arms the hook with a closure to run inside the next validation
    /// window.
    pub fn arm(&self, f: Box<dyn FnMut() + Send>) {
        *self.f.lock() = Some(f);
        self.armed.store(true, std::sync::atomic::Ordering::Release);
    }

    pub(crate) fn fire(&self) {
        if self.armed.load(std::sync::atomic::Ordering::Relaxed)
            && self.armed.swap(false, std::sync::atomic::Ordering::AcqRel)
        {
            if let Some(mut f) = self.f.lock().take() {
                // The closure plays a *different* process interleaved onto
                // this thread mid-validation-window; park the thread-local
                // snapshot-discipline state for its duration.
                let _pause = blink_pagestore::audit::pause_snapshot_audit();
                f();
            }
        }
    }
}

/// Teaches the pagestore's latch auditor (the `latch-audit` feature) to read
/// a tree node's level out of raw frame bytes, so the frame-latch level rule
/// (descend top-down; same level only left-to-right while overtaking) can be
/// checked against real page contents. Registered once per process; a no-op
/// when the feature is off.
fn register_audit_level_probe() {
    blink_pagestore::audit::register_level_probe(|b| {
        if b.len() >= 4 && u16::from_le_bytes([b[0], b[1]]) == crate::node::MAGIC {
            Some(b[3])
        } else {
            None
        }
    });
}

impl std::fmt::Debug for OptimisticTestHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimisticTestHook")
            .field(
                "armed",
                &self.armed.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish()
    }
}

/// A concurrent B\*-tree (Blink-tree) with overtaking insertions and
/// concurrent compression, per Sagiv (JCSS 1986).
///
/// All operations take a [`Session`] (the paper's *process*): obtain one per
/// worker thread with [`BLinkTree::session`]. The tree itself is `Sync`;
/// share it through an `Arc`.
#[derive(Debug)]
pub struct BLinkTree {
    pub(crate) store: Arc<PageStore>,
    pub(crate) cfg: TreeConfig,
    pub(crate) prime_pid: PageId,
    pub(crate) clock: Arc<LogicalClock>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) freelist: DeferredFreeList,
    pub(crate) queue: CompressionQueue,
    pub(crate) counters: TreeCounters,
    /// See [`OptimisticTestHook`]; a no-op unless a test arms it.
    #[doc(hidden)]
    pub optimistic_hook: OptimisticTestHook,
}

impl BLinkTree {
    /// Creates a fresh tree in `store`: a prime block plus one empty leaf
    /// that is the initial root.
    pub fn create(store: Arc<PageStore>, cfg: TreeConfig) -> Result<Arc<BLinkTree>> {
        cfg.validate(store.page_size())?;
        register_audit_level_probe();
        let clock = Arc::new(LogicalClock::new());
        let registry = SessionRegistry::new(Arc::clone(&clock));
        let prime_pid = store.alloc()?;
        let root = store.alloc()?;
        let mut leaf = Node::new_leaf();
        leaf.is_root = true;
        store.put(root, &leaf.encode(store.page_size()))?;
        store.put(
            prime_pid,
            &PrimeBlock::initial(root).encode(store.page_size()),
        )?;
        Ok(Arc::new(BLinkTree {
            store,
            cfg,
            prime_pid,
            clock,
            registry,
            freelist: DeferredFreeList::new(),
            queue: CompressionQueue::new(),
            counters: TreeCounters::default(),
            optimistic_hook: OptimisticTestHook::default(),
        }))
    }

    /// Re-opens a tree previously created in `store` (the prime block's
    /// address "must be known to the operating system", §3.3 — callers keep
    /// it; `create` always places it in the store's first page). Validates
    /// the prime block and the root before returning.
    pub fn open(
        store: Arc<PageStore>,
        cfg: TreeConfig,
        prime_pid: PageId,
    ) -> Result<Arc<BLinkTree>> {
        cfg.validate(store.page_size())?;
        register_audit_level_probe();
        let prime = PrimeBlock::decode(&store.read(prime_pid)?)?;
        let root = Node::decode(&store.read(prime.root)?)?;
        if !root.is_root || root.deleted {
            return Err(TreeError::Corrupt("prime block points to a non-root node"));
        }
        if u32::from(root.level) + 1 != prime.height {
            return Err(TreeError::Corrupt("root level disagrees with prime height"));
        }
        let clock = Arc::new(LogicalClock::new());
        let registry = SessionRegistry::new(Arc::clone(&clock));
        Ok(Arc::new(BLinkTree {
            store,
            cfg,
            prime_pid,
            clock,
            registry,
            freelist: DeferredFreeList::new(),
            queue: CompressionQueue::new(),
            counters: TreeCounters::default(),
            optimistic_hook: OptimisticTestHook::default(),
        }))
    }

    /// Builds a handle without validating the prime block or root — the
    /// crash-recovery path ([`BLinkTree::open_or_recover`]) repairs trees
    /// that `open` would rightly reject.
    pub(crate) fn open_unchecked(
        store: Arc<PageStore>,
        cfg: TreeConfig,
        prime_pid: PageId,
    ) -> Result<Arc<BLinkTree>> {
        cfg.validate(store.page_size())?;
        register_audit_level_probe();
        let clock = Arc::new(LogicalClock::new());
        let registry = SessionRegistry::new(Arc::clone(&clock));
        Ok(Arc::new(BLinkTree {
            store,
            cfg,
            prime_pid,
            clock,
            registry,
            freelist: DeferredFreeList::new(),
            queue: CompressionQueue::new(),
            counters: TreeCounters::default(),
            optimistic_hook: OptimisticTestHook::default(),
        }))
    }

    /// The prime block's page id (pass to [`BLinkTree::open`] to re-attach).
    pub fn prime_page(&self) -> PageId {
        self.prime_pid
    }

    /// Opens a session (a worker identity). One per thread.
    pub fn session(&self) -> Session {
        self.registry.open()
    }

    /// Tree configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// The underlying store (for stats and experiments).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// Structural event counters.
    pub fn counters(&self) -> &TreeCounters {
        &self.counters
    }

    /// Counts a link follow on both the session and the tree-wide counter.
    pub(crate) fn note_link(&self, session: &mut Session) {
        session.note_link_follow();
        TreeCounters::bump(&self.counters.link_follows);
    }

    /// The compression queue length (0 when fully compressed or when
    /// `enqueue_on_underflow` is off).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Pages awaiting deferred reclamation.
    pub fn pending_reclaim(&self) -> usize {
        self.freelist.pending_count()
    }

    /// Current height (number of levels).
    pub fn height(&self) -> Result<u32> {
        Ok(self.read_prime()?.height)
    }

    /// Releases deleted pages whose deletion time precedes every running
    /// process's start time *and* every queued compression stack's stamp —
    /// the §5.3/§5.4 rule. Safe to call from any thread at any time.
    pub fn reclaim(&self) -> Result<usize> {
        let horizon = self
            .registry
            .min_active_start()
            .min(self.queue.min_stamp().unwrap_or(u64::MAX));
        let n = self.freelist.reclaim(horizon, &self.store)?;
        TreeCounters::add(&self.counters.reclaimed, n as u64);
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Page-level plumbing.
    // ------------------------------------------------------------------

    /// Reads and decodes a node; hard-fails on any problem. Inside the
    /// protocols this is used only when the page is guaranteed live (e.g. a
    /// child whose parent is locked); it is public for tools, figures and
    /// tests that inspect quiesced trees.
    ///
    /// The page bytes are borrowed straight from the store's buffer-pool
    /// frame (no page copy on a hit); the decoded [`Node`] is this process's
    /// §2.2 private snapshot, so the guard is released before returning.
    pub fn read_node(&self, pid: PageId) -> Result<Node> {
        Node::decode(&self.store.read(pid)?)
    }

    /// Reads a node defensively: `Ok(None)` when the page was freed,
    /// reallocated to something undecodable, or out of bounds — all of
    /// which traversals answer with a restart (§5.2).
    pub(crate) fn try_read_node(&self, pid: PageId) -> Result<Option<Node>> {
        self.read_view(pid, false, |n| n.to_node())
    }

    /// Reads `pid` and answers `f` over its [`NodeView`]; `Ok(None)` in
    /// every case [`BLinkTree::try_read_node`] returns it.
    ///
    /// Latched, `f` runs on the page bytes under the frame's read latch.
    /// With `optimistic` (root/branch descent steps), the page is first
    /// copied out of its frame **without taking the frame latch**
    /// (validated by the frame's seqlock) and `f` runs on that private
    /// copy; the version stamp is then revalidated before the answer may
    /// be acted on. A failed revalidation — a writer began mutating the
    /// page since the snapshot — returns `Ok(None)`, which traversals
    /// answer with a restart, exactly like a wrong-node read. Unavailable
    /// fast paths (page not resident, writer mid-mutation) fall back to
    /// the latched read.
    pub(crate) fn read_view<R>(
        &self,
        pid: PageId,
        optimistic: bool,
        mut f: impl FnMut(&NodeView<'_>) -> R,
    ) -> Result<Option<R>> {
        let snapshot = if optimistic {
            self.read_snapshot(pid, |b| NodeView::parse(b).ok().map(|n| f(&n)))
        } else {
            Ok(None)
        };
        let latched = match snapshot {
            Ok(Some((stamp, r))) => {
                self.optimistic_hook.fire();
                return Ok(if self.store.stamp_valid(pid, &stamp) {
                    r
                } else {
                    None
                });
            }
            Ok(None) => self.store.read(pid),
            Err(e) => Err(e),
        };
        match latched {
            Ok(guard) => Ok(NodeView::parse(&guard).ok().map(|n| f(&n))),
            Err(StoreError::PageFreed(_)) | Err(StoreError::OutOfBounds(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The seqlock read (README rule 2, "copy, then decode privately"):
    /// copies `pid` out of its resident frame into a thread-local buffer
    /// without the frame latch and runs `f` over the private copy. The
    /// caller revalidates the returned stamp before acting on `f`'s
    /// answer. `Ok(None)` when no snapshot could be taken (page not
    /// resident, writer mid-copy).
    fn read_snapshot<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> std::result::Result<Option<(PageStamp, R)>, StoreError> {
        thread_local! {
            static OPT_BUF: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        OPT_BUF.with(|b| {
            let mut buf = b.borrow_mut();
            buf.resize(self.store.page_size(), 0);
            let stamp = self.store.read_unlatched(pid, &mut buf)?;
            Ok(stamp.map(|stamp| (stamp, f(&buf))))
        })
    }

    /// Encodes and writes a node (one indivisible, journaled `put`),
    /// serializing directly into the page's frame.
    pub(crate) fn write_node(&self, pid: PageId, node: &Node) -> Result<()> {
        let mut w = self.store.write_page(pid, WriteIntent::Overwrite)?;
        node.encode_into(w.bytes_mut());
        w.commit()?;
        Ok(())
    }

    /// Reads the prime block — over the seqlock path, like the branch
    /// levels, when `optimistic_reads` is on (a stale or unavailable
    /// snapshot falls back to the latched read).
    pub(crate) fn read_prime(&self) -> Result<PrimeBlock> {
        if self.cfg.optimistic_reads {
            if let Some((stamp, prime)) = self.read_snapshot(self.prime_pid, PrimeBlock::decode)? {
                if self.store.stamp_valid(self.prime_pid, &stamp) {
                    return prime;
                }
            }
        }
        PrimeBlock::decode(&self.store.read(self.prime_pid)?)
    }

    /// Rewrites the prime block. Callers must hold the lock on the current
    /// root (§3.3: "a process rewrites it only when it has a lock on the
    /// root"), which is what makes the lockless write race-free.
    pub(crate) fn write_prime(&self, prime: &PrimeBlock) -> Result<()> {
        let mut w = self
            .store
            .write_page(self.prime_pid, WriteIntent::Overwrite)?;
        prime.encode_into(w.bytes_mut());
        w.commit()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::StoreConfig;

    fn tree(k: usize) -> Arc<BLinkTree> {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
    }

    #[test]
    fn create_initializes_single_leaf_root() {
        let t = tree(4);
        assert_eq!(t.height().unwrap(), 1);
        let prime = t.read_prime().unwrap();
        let root = t.read_node(prime.root).unwrap();
        assert!(root.is_leaf());
        assert!(root.is_root);
        assert_eq!(root.pairs(), 0);
        assert_eq!(root.low, crate::key::Bound::NegInf);
        assert_eq!(root.high, crate::key::Bound::PosInf);
        assert_eq!(root.link, None);
        assert_eq!(prime.leftmost_at(0), Some(prime.root));
    }

    #[test]
    fn create_rejects_bad_config() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        assert!(BLinkTree::create(store, TreeConfig::with_k(0)).is_err());
    }

    #[test]
    fn reclaim_on_fresh_tree_is_noop() {
        let t = tree(4);
        assert_eq!(t.reclaim().unwrap(), 0);
        assert_eq!(t.pending_reclaim(), 0);
        assert_eq!(t.queue_len(), 0);
    }
}

#[cfg(test)]
mod open_tests {
    use super::*;
    use crate::config::TreeConfig;
    use blink_pagestore::StoreConfig;

    #[test]
    fn open_reattaches_to_existing_tree() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let prime_pid;
        {
            let t = BLinkTree::create(Arc::clone(&store), TreeConfig::with_k(2)).unwrap();
            prime_pid = t.prime_page();
            let mut s = t.session();
            for i in 0..300u64 {
                t.insert(&mut s, i, i * 2).unwrap();
            }
        } // handle dropped; pages persist in the store
        let t2 = BLinkTree::open(Arc::clone(&store), TreeConfig::with_k(2), prime_pid).unwrap();
        let mut s = t2.session();
        for i in 0..300u64 {
            assert_eq!(t2.search(&mut s, i).unwrap(), Some(i * 2));
        }
        t2.insert(&mut s, 1000, 1).unwrap();
        assert_eq!(t2.search(&mut s, 1000).unwrap(), Some(1));
        t2.verify(false).unwrap().assert_ok();
    }

    #[test]
    fn open_rejects_garbage_prime() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let junk = store.alloc().unwrap();
        assert!(BLinkTree::open(store, TreeConfig::with_k(2), junk).is_err());
    }

    #[test]
    fn open_rejects_stale_root_pointer() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let t = BLinkTree::create(Arc::clone(&store), TreeConfig::with_k(2)).unwrap();
        let prime_pid = t.prime_page();
        // Corrupt: clear the root bit behind the tree's back.
        let prime = t.read_prime().unwrap();
        let mut root = t.read_node(prime.root).unwrap();
        root.is_root = false;
        t.write_node(prime.root, &root).unwrap();
        assert!(BLinkTree::open(store, TreeConfig::with_k(2), prime_pid).is_err());
    }
}
