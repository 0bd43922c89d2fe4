//! Latch-protocol conformance auditor (the `latch-audit` feature).
//!
//! The paper's correctness argument is a latch-discipline argument:
//! overtaking is safe only because latches are coupled top-down /
//! left-to-right and never held across the wrong boundaries (§4's proof
//! walks the lock schedule, not the data structure). After the WAL staging,
//! buffer pool and record heap landed, the codebase holds five distinct
//! lock families plus a hand-rolled seqlock — this module machine-checks
//! that the protocol the paper proves is the protocol the code follows.
//!
//! Every lock site registers its acquisition with a typed [`LockClass`].
//! The auditor keeps:
//!
//! * a **per-thread acquisition stack** — what this thread holds, in order;
//! * a **global class-order graph** — every `held → acquired` class pair
//!   ever observed, each with the acquisition backtrace that first
//!   established it;
//! * a **whitelist of legal edges** ([`edge_allowed`]) encoding the
//!   protocol: paper locks outermost, heap shard before frame latches,
//!   frame latches before slot latches, slot latches before the WAL,
//!   append mutex before staging slots, pool shards as pure leaves;
//! * the **frame-level rule**: a thread holding a frame latch for a node
//!   of level `L` may only acquire frame latches at level `≤ L` — strictly
//!   below is the top-down coupling, equality is the paper's left-to-right
//!   overtaking exception (link chases along one level);
//! * **seqlock discipline**: `Frame::begin_write` only under that frame's
//!   write latch, and every `snapshot_unlatched` revalidated before the
//!   thread takes another optimistic snapshot.
//!
//! A violation panics with the offending acquisition, the full held stack,
//! and — for order-graph cycles (would-deadlock) — the stored backtrace of
//! the edge that completes the cycle, so both halves of the inversion are
//! visible.
//!
//! With the feature **off** every function here is an inlineable no-op and
//! [`Held`] is a zero-sized token without a `Drop` impl: the audit costs
//! nothing in production builds.

use std::ops::{Deref, DerefMut};

/// The lock families of the codebase, outermost-first. The variant order
/// documents the legal nesting; the authoritative rule is [`edge_allowed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LockClass {
    /// The paper's `lock(x)` (exclusive among lockers, invisible to
    /// readers). Outermost: the tree holds up to three across arbitrary
    /// node reads/writes. Not RAII — paired via `acquire_manual`.
    PaperLock = 0,
    /// Shared/exclusive page locks of the top-down baseline
    /// ([`crate::rwlock`]). Outermost like paper locks; coupling holds
    /// several at once, strictly root→leaf.
    RwPage = 1,
    /// A record-heap shard's open-page slot ([`crate::heap`]). At most one
    /// per thread; held across the whole placement (frame write + WAL).
    HeapShard = 2,
    /// A buffer-pool frame's data `RwLock` — the §2.2 node latch. The
    /// frame-level rule (top-down, left-to-right overtaking) applies on
    /// top of the class edge.
    FrameLatch = 3,
    /// A page's slot latch (`Slot::latch`): serializes loads, write-backs,
    /// bypasses, journal appends and allocation-flag changes of one page.
    SlotLatch = 4,
    /// The WAL append mutex (`Wal::inner`): segment file + LSN cursor.
    WalAppend = 5,
    /// A per-thread WAL staging slot. Leaf-ish: `stage` holds only its own
    /// slot; the publish leader drains all slots under the append mutex.
    WalSlot = 6,
    /// The group-commit window (`Wal::flushed` + its condvar).
    CommitWindow = 7,
    /// The slot table's growth mutex (`SlotTable::grow_with`, taken only
    /// when `alloc` finds the free list empty). Lookups are lock-free.
    SlotsMap = 8,
    /// The store's free-list mutex (`PageStore::free`).
    FreeList = 9,
    /// A buffer-pool shard mutex. A pure leaf: no I/O and no other lock is
    /// ever taken while one is held.
    PoolShard = 10,
    /// The record heap's recycle queue (adoption candidates).
    HeapRecycle = 11,
    /// The `Db` read-session pool.
    SessionPool = 12,
    /// A pipelined-commit batch: the pipeline control mutex (`Wal`'s
    /// leader/durable-LSN state) and each in-flight batch's completion
    /// gate share this class. Entered from the same sites as
    /// `CommitWindow`; the leader must never hold the control mutex while
    /// taking a batch gate (same-class nesting is forbidden).
    WalBatch = 13,
    /// The background flusher's control mutex (watermark state + shutdown
    /// flag). A pure leaf: foreground throttling and flusher drains take
    /// it with nothing else held.
    FlusherQueue = 14,
    /// The store-health error latch ([`crate::health::StoreHealth`]): the
    /// mutex holding the first poison/flusher error. A pure leaf — the
    /// lock-free poisoned/flagged fast path means it is only taken to
    /// record or consume the latched error, never with anything held.
    HealthLatch = 15,
}

#[cfg_attr(not(feature = "latch-audit"), allow(dead_code))]
const NCLASSES: usize = 16;

/// The protocol whitelist: may a thread holding `from` acquire `to`?
/// Same-class pairs are governed separately (see `reentrant`); this table
/// is only consulted for cross-class nesting.
pub const fn edge_allowed(from: LockClass, to: LockClass) -> bool {
    use LockClass::*;
    // The health latch is the universal leaf: poisoning fires from the
    // deepest I/O sites (a failed fsync under the append mutex and the
    // commit window, a flusher write-back, a root-split rollback), so
    // every class may acquire it — and it takes nothing while held (the
    // arm below keeps its own row all-false).
    if matches!(to, HealthLatch) {
        return true;
    }
    match from {
        // Paper locks and baseline page locks are outermost: everything in
        // the storage stack may be acquired under them, but never a heap
        // shard (record placement happens before the index descent) and
        // never each other.
        PaperLock | RwPage => !matches!(to, PaperLock | RwPage | HeapShard | SessionPool),
        // A heap shard is held across place(): frame write → slot latch →
        // WAL, plus alloc (free list / slots map) and adoption (recycle).
        HeapShard => matches!(
            to,
            FrameLatch
                | SlotLatch
                | WalAppend
                | WalSlot
                | CommitWindow
                | WalBatch
                | SlotsMap
                | FreeList
                | PoolShard
                | HeapRecycle
        ),
        // Frame latch → slot latch → journal/backend is the store's
        // documented order; the pool's shard mutexes may be taken below
        // it. (Slot lookups take no lock, and nothing allocates a page
        // under a frame latch, so SlotsMap is not reachable from here.)
        FrameLatch => matches!(
            to,
            SlotLatch | WalAppend | WalSlot | CommitWindow | WalBatch | PoolShard
        ),
        // Under a slot latch: journal appends (append mutex, staging
        // slots, the commit window / pipeline batches) and pool-shard
        // checks (`is_mapped`/`still_flushing`).
        SlotLatch => matches!(
            to,
            WalAppend | WalSlot | CommitWindow | WalBatch | PoolShard
        ),
        // The publish leader drains staging slots and `sync_to` enters the
        // commit window, both under the append mutex.
        WalAppend => matches!(to, WalSlot | CommitWindow),
        // Leaves: nothing may be acquired while one of these is held.
        // `WalBatch` is deliberately a leaf with same-class nesting
        // forbidden: the pipeline leader reads the batch cell out of the
        // control mutex, drops it, and only then touches the cell's gate.
        WalSlot | CommitWindow | WalBatch | SlotsMap | FreeList | PoolShard | HeapRecycle
        | SessionPool | FlusherQueue | HealthLatch => false,
    }
}

/// May one thread hold two locks of this class at once? Paper locks (≤ 3,
/// by the paper's protocol), baseline page locks (root→leaf coupling) and
/// frame latches (governed by the level rule) — everything else is
/// strictly single-hold per thread, which is exactly the "at most one heap
/// shard per thread" style of rule.
#[cfg_attr(not(feature = "latch-audit"), allow(dead_code))]
const fn reentrant(class: LockClass) -> bool {
    matches!(
        class,
        LockClass::PaperLock | LockClass::RwPage | LockClass::FrameLatch
    )
}

/// A guard returned by a lock-site wrapper: the real lock guard plus the
/// audit registration, released together. Derefs to the guard's target so
/// call sites read exactly as before.
#[derive(Debug)]
pub struct Audited<G> {
    guard: G,
    _token: Held,
}

impl<G> Audited<G> {
    /// Mutable access to the wrapped guard itself (condvar waits need
    /// `&mut MutexGuard`).
    pub fn guard_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

impl<G: Deref> Deref for Audited<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Audited<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Registers the acquisition, then runs `lock` to take the real guard.
/// Registering *first* means a would-self-deadlock (reentrant acquisition
/// of a non-reentrant mutex) panics with a stack instead of hanging.
#[inline]
pub fn audited<G>(class: LockClass, addr: usize, lock: impl FnOnce() -> G) -> Audited<G> {
    let token = acquire(class, addr);
    Audited {
        guard: lock(),
        _token: token,
    }
}

#[cfg(feature = "latch-audit")]
pub use imp::*;

#[cfg(feature = "latch-audit")]
mod imp {
    use super::{edge_allowed, reentrant, LockClass, NCLASSES};
    use parking_lot::Mutex;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    /// Pseudo-level for heap data pages: below the leaves (level 0) that
    /// point into them.
    pub const HEAP_DATA_LEVEL: i16 = -1;

    #[derive(Debug, Clone)]
    struct Entry {
        class: LockClass,
        addr: usize,
        /// Frame latches only: the node level, once classified
        /// (`None` = not yet known, e.g. a frame still being loaded).
        level: Option<i16>,
    }

    struct ThreadState {
        held: Vec<Entry>,
        /// Frame address of an optimistic snapshot not yet revalidated.
        pending_snapshot: Option<usize>,
    }

    thread_local! {
        static TLS: RefCell<ThreadState> = const {
            RefCell::new(ThreadState { held: Vec::new(), pending_snapshot: None })
        };
    }

    /// Fast-path "edge already recorded" bits; the mutex-protected graph
    /// below is only entered the first time a class pair is observed.
    static EDGE_SEEN: [[AtomicBool; NCLASSES]; NCLASSES] =
        [const { [const { AtomicBool::new(false) }; NCLASSES] }; NCLASSES];

    struct OrderGraph {
        edge: [[bool; NCLASSES]; NCLASSES],
        /// First-observed acquisition backtrace per edge, for the "both
        /// stacks" half of a cycle report.
        example: Vec<((usize, usize), String)>,
    }

    static GRAPH: Mutex<OrderGraph> = Mutex::new(OrderGraph {
        edge: [[false; NCLASSES]; NCLASSES],
        example: Vec::new(),
    });

    /// An "is this page an index node, and at what level?" probe.
    type LevelProbe = fn(&[u8]) -> Option<u8>;

    /// Node-level probe, registered by the tree crate (the page layout
    /// lives above this crate). Returns the node's level for index pages.
    static LEVEL_PROBE: OnceLock<LevelProbe> = OnceLock::new();

    /// Registers the node-level probe. First registration wins; later
    /// calls are no-ops.
    pub fn register_level_probe(probe: LevelProbe) {
        let _ = LEVEL_PROBE.set(probe);
    }

    /// RAII audit token: pops its stack entry on drop.
    #[derive(Debug)]
    pub struct Held {
        class: LockClass,
        addr: usize,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            release(self.class, self.addr);
        }
    }

    fn class_name(i: usize) -> &'static str {
        [
            "PaperLock",
            "RwPage",
            "HeapShard",
            "FrameLatch",
            "SlotLatch",
            "WalAppend",
            "WalSlot",
            "CommitWindow",
            "SlotsMap",
            "FreeList",
            "PoolShard",
            "HeapRecycle",
            "SessionPool",
            "WalBatch",
            "FlusherQueue",
            "HealthLatch",
        ][i]
    }

    fn describe_stack(held: &[Entry]) -> String {
        if held.is_empty() {
            return "  (nothing held)".to_string();
        }
        held.iter()
            .map(|e| {
                let lvl = match e.level {
                    Some(l) => format!(" level={l}"),
                    None => String::new(),
                };
                format!("  {:?} @ {:#x}{}", e.class, e.addr, lvl)
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[cold]
    fn violation(held: &[Entry], msg: &str, other_stack: Option<&str>) -> ! {
        let other = match other_stack {
            Some(s) => format!("\n--- first acquisition of the reversed edge ---\n{s}"),
            None => String::new(),
        };
        panic!(
            "latch-audit violation: {msg}\n--- this thread holds ---\n{}\n--- this acquisition ---\n{}{other}",
            describe_stack(held),
            Backtrace::force_capture(),
        );
    }

    /// Is `to` reachable from `from` through the observed-order graph?
    fn reachable(g: &OrderGraph, from: usize, to: usize) -> bool {
        let mut seen = [false; NCLASSES];
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            for (m, &e) in g.edge[n].iter().enumerate() {
                if e && m != n && !seen[m] {
                    stack.push(m);
                }
            }
        }
        false
    }

    /// Records `from → to` in the global order graph (first observation
    /// only), checking that the new edge does not close a cycle — a cycle
    /// in the observed order is a schedule that can deadlock.
    fn record_edge(held: &[Entry], from: LockClass, to: LockClass) {
        let (f, t) = (from as usize, to as usize);
        if EDGE_SEEN[f][t].load(Ordering::Relaxed) {
            return;
        }
        let mut g = GRAPH.lock();
        if g.edge[f][t] {
            EDGE_SEEN[f][t].store(true, Ordering::Relaxed);
            return;
        }
        // Would the reverse direction already reach us? Then from → to
        // completes a cycle: report both acquisition stacks.
        if reachable(&g, t, f) {
            let other = g
                .example
                .iter()
                .find(|((ef, et), _)| *ef == t && *et == f)
                .or_else(|| g.example.iter().find(|((ef, _), _)| *ef == t))
                .map(|(_, s)| s.clone());
            drop(g); // do not poison other tests' graph state
            violation(
                held,
                &format!(
                    "order-graph cycle: acquiring {} while holding {} closes a \
                     {} → … → {} path (would-deadlock)",
                    class_name(t),
                    class_name(f),
                    class_name(t),
                    class_name(f)
                ),
                other.as_deref(),
            );
        }
        g.edge[f][t] = true;
        g.example
            .push(((f, t), format!("{}", Backtrace::force_capture())));
        EDGE_SEEN[f][t].store(true, Ordering::Relaxed);
    }

    /// Registers an acquisition of `class` (lock identity `addr`) and
    /// checks it against the held stack: reentrancy, whitelist edges, and
    /// the observed-order graph. Returns an RAII token.
    pub fn acquire(class: LockClass, addr: usize) -> Held {
        TLS.with(|tls| {
            let mut st = tls.borrow_mut();
            for e in &st.held {
                if e.class == class {
                    // RwPage is exempt from the same-address check: the
                    // top-down baseline locks per *session*, and its tests
                    // legitimately run two sessions (e.g. two readers of
                    // one page) on a single thread.
                    if e.addr == addr && class != LockClass::RwPage {
                        violation(
                            &st.held,
                            &format!(
                                "reentrant acquisition of {:?} @ {addr:#x} (self-deadlock)",
                                class
                            ),
                            None,
                        );
                    }
                    if !reentrant(class) {
                        violation(
                            &st.held,
                            &format!(
                                "two {:?} locks held by one thread ({:#x} then {addr:#x})",
                                class, e.addr
                            ),
                            None,
                        );
                    }
                }
                if e.class != class && !edge_allowed(e.class, class) {
                    violation(
                        &st.held,
                        &format!(
                            "illegal edge {:?} → {:?}: the protocol whitelist forbids \
                             acquiring {:?} while {:?} @ {:#x} is held",
                            e.class, class, class, e.class, e.addr
                        ),
                        None,
                    );
                }
            }
            let held: Vec<LockClass> = st.held.iter().map(|e| e.class).collect();
            st.held.push(Entry {
                class,
                addr,
                level: None,
            });
            // Record edges after the push so the violation report (if the
            // cycle check fires) shows the acquisition in the stack.
            for from in held {
                if from != class {
                    record_edge(&st.held, from, class);
                }
            }
        });
        Held { class, addr }
    }

    /// Non-RAII acquisition for locks released in a different scope
    /// (paper locks, baseline page locks). Pair with [`release_manual`].
    pub fn acquire_manual(class: LockClass, addr: usize) {
        std::mem::forget(acquire(class, addr));
    }

    /// Releases a [`acquire_manual`] registration.
    pub fn release_manual(class: LockClass, addr: usize) {
        release(class, addr);
    }

    fn release(class: LockClass, addr: usize) {
        TLS.with(|tls| {
            let mut st = tls.borrow_mut();
            // Pop the most recent matching entry: releases may be
            // out-of-order (lock coupling drops the parent first).
            if let Some(i) = st
                .held
                .iter()
                .rposition(|e| e.class == class && e.addr == addr)
            {
                st.held.remove(i);
            }
        });
    }

    /// Classifies a held frame latch with the page bytes behind it and
    /// enforces the frame-level rule: a new frame's level must not exceed
    /// any already-held frame's level (top-down coupling; equality is the
    /// left-to-right overtaking exception).
    pub fn classify_frame(addr: usize, bytes: &[u8]) {
        let level = if let Some(l) = LEVEL_PROBE.get().and_then(|p| p(bytes)) {
            Some(i16::from(l))
        } else if crate::heap::is_heap_page(bytes) {
            Some(HEAP_DATA_LEVEL)
        } else {
            None
        };
        let Some(level) = level else { return };
        set_frame_level(addr, level);
    }

    /// Directly sets the level of the most recent held frame latch at
    /// `addr` and enforces the level rule (exposed for the auditor's own
    /// forced-violation tests; production code uses [`classify_frame`]).
    pub fn set_frame_level(addr: usize, level: i16) {
        TLS.with(|tls| {
            let mut st = tls.borrow_mut();
            let Some(i) = st
                .held
                .iter()
                .rposition(|e| e.class == LockClass::FrameLatch && e.addr == addr)
            else {
                return;
            };
            st.held[i].level = Some(level);
            let bad = st.held.iter().enumerate().find_map(|(j, e)| {
                if j == i || e.class != LockClass::FrameLatch {
                    return None;
                }
                e.level.filter(|&l| level > l).map(|l| (e.addr, l))
            });
            if let Some((other_addr, other_level)) = bad {
                violation(
                    &st.held,
                    &format!(
                        "frame-level rule: acquired a level-{level} frame latch \
                         @ {addr:#x} while holding a level-{other_level} frame \
                         latch @ {other_addr:#x} — child→parent coupling is the \
                         upward inversion the paper's top-down/left-to-right \
                         protocol (Fig. 2) forbids"
                    ),
                    None,
                );
            }
        });
    }

    /// Seqlock discipline: `Frame::begin_write` must run under that
    /// frame's *write* latch. `addr` is the frame's data-latch address;
    /// the write latch is registered by the store's `latch_write` wrapper.
    pub fn seqlock_write_begin(addr: usize) {
        TLS.with(|tls| {
            let st = tls.borrow();
            if !st
                .held
                .iter()
                .any(|e| e.class == LockClass::FrameLatch && e.addr == addr)
            {
                violation(
                    &st.held,
                    &format!(
                        "seqlock begin_write on frame latch {addr:#x} without \
                         holding that frame's write latch"
                    ),
                    None,
                );
            }
        });
    }

    /// Notes a successful `snapshot_unlatched`: at most one unvalidated
    /// optimistic snapshot may exist per thread, so every snapshot is
    /// revalidated (stamp-checked) before the next one is taken.
    pub fn note_snapshot(frame_addr: usize) {
        TLS.with(|tls| {
            let mut st = tls.borrow_mut();
            if let Some(prev) = st.pending_snapshot {
                let msg = format!(
                    "optimistic snapshot of frame {frame_addr:#x} taken while the \
                     snapshot of frame {prev:#x} was never revalidated \
                     (every snapshot_unlatched must be stamp-checked before use)"
                );
                violation(&st.held, &msg, None);
            }
            st.pending_snapshot = Some(frame_addr);
        });
    }

    /// Notes a `stamp_valid` revalidation of the pending snapshot.
    pub fn note_revalidate(frame_addr: usize) {
        TLS.with(|tls| {
            let mut st = tls.borrow_mut();
            if st.pending_snapshot == Some(frame_addr) {
                st.pending_snapshot = None;
            }
        });
    }

    /// Suspends the snapshot-discipline check until the returned guard
    /// drops. For harnesses that interleave *another process's* work onto
    /// the current thread inside a validation window (e.g. the tree's
    /// optimistic-read test hook): the inner work legitimately snapshots
    /// while the outer snapshot is still pending, which on a real second
    /// thread would be two separate per-thread states.
    pub fn pause_snapshot_audit() -> SnapshotAuditPause {
        SnapshotAuditPause {
            saved: TLS.with(|tls| tls.borrow_mut().pending_snapshot.take()),
        }
    }

    /// Token from [`pause_snapshot_audit`]; restores the suspended pending
    /// snapshot on drop.
    #[derive(Debug)]
    pub struct SnapshotAuditPause {
        saved: Option<usize>,
    }

    impl Drop for SnapshotAuditPause {
        fn drop(&mut self) {
            if let Some(addr) = self.saved.take() {
                TLS.with(|tls| tls.borrow_mut().pending_snapshot = Some(addr));
            }
        }
    }

    /// Number of audited locks this thread currently holds (tests).
    pub fn held_count() -> usize {
        TLS.with(|tls| tls.borrow().held.len())
    }
}

#[cfg(not(feature = "latch-audit"))]
pub use stub::*;

/// No-op stubs compiled when `latch-audit` is off: every call inlines to
/// nothing and [`Held`] is a zero-sized token without a `Drop` impl.
#[cfg(not(feature = "latch-audit"))]
mod stub {
    use super::LockClass;

    /// Pseudo-level for heap data pages (mirrors the audit build).
    pub const HEAP_DATA_LEVEL: i16 = -1;

    /// Zero-sized stand-in for the audit token.
    #[derive(Debug)]
    pub struct Held;

    #[inline(always)]
    pub fn register_level_probe(_probe: fn(&[u8]) -> Option<u8>) {}

    #[inline(always)]
    pub fn acquire(_class: LockClass, _addr: usize) -> Held {
        Held
    }

    #[inline(always)]
    pub fn acquire_manual(_class: LockClass, _addr: usize) {}

    #[inline(always)]
    pub fn release_manual(_class: LockClass, _addr: usize) {}

    #[inline(always)]
    pub fn classify_frame(_addr: usize, _bytes: &[u8]) {}

    #[inline(always)]
    pub fn set_frame_level(_addr: usize, _level: i16) {}

    #[inline(always)]
    pub fn seqlock_write_begin(_addr: usize) {}

    #[inline(always)]
    pub fn note_snapshot(_frame_addr: usize) {}

    #[inline(always)]
    pub fn note_revalidate(_frame_addr: usize) {}

    /// Zero-sized stand-in for the snapshot-audit pause token.
    #[derive(Debug)]
    pub struct SnapshotAuditPause;

    #[inline(always)]
    pub fn pause_snapshot_audit() -> SnapshotAuditPause {
        SnapshotAuditPause
    }

    #[inline(always)]
    pub fn held_count() -> usize {
        0
    }
}

#[cfg(all(test, feature = "latch-audit"))]
mod tests {
    use super::*;

    // NB: every test runs in its own thread (libtest), so the thread-local
    // acquisition stacks never interfere; violating acquisitions are
    // rejected *before* reaching the global order graph, so `should_panic`
    // tests do not pollute other tests either.

    #[test]
    fn legal_nesting_is_accepted_and_released() {
        let a = acquire(LockClass::HeapShard, 0x10);
        let b = acquire(LockClass::FrameLatch, 0x20);
        let c = acquire(LockClass::SlotLatch, 0x30);
        let d = acquire(LockClass::WalAppend, 0x40);
        let e = acquire(LockClass::WalSlot, 0x50);
        assert_eq!(held_count(), 5);
        drop(e);
        drop(d);
        drop(c);
        drop(b);
        drop(a);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn out_of_order_release_is_fine() {
        let a = acquire(LockClass::PaperLock, 0x1);
        let b = acquire(LockClass::PaperLock, 0x2);
        drop(a); // coupling releases the parent first
        assert_eq!(held_count(), 1);
        drop(b);
        assert_eq!(held_count(), 0);
    }

    #[test]
    #[should_panic(expected = "illegal edge")]
    fn pool_shard_is_a_leaf() {
        let _shard = acquire(LockClass::PoolShard, 0x10);
        let _latch = acquire(LockClass::FrameLatch, 0x20);
    }

    #[test]
    #[should_panic(expected = "two HeapShard")]
    fn two_heap_shards_trip() {
        let _a = acquire(LockClass::HeapShard, 0x10);
        let _b = acquire(LockClass::HeapShard, 0x20);
    }

    #[test]
    #[should_panic(expected = "reentrant acquisition")]
    fn same_lock_twice_trips() {
        let _a = acquire(LockClass::FrameLatch, 0x10);
        let _b = acquire(LockClass::FrameLatch, 0x10);
    }

    #[test]
    #[should_panic(expected = "frame-level rule")]
    fn child_then_parent_frame_latch_trips() {
        let _leaf = acquire(LockClass::FrameLatch, 0x10);
        set_frame_level(0x10, 0);
        let _parent = acquire(LockClass::FrameLatch, 0x20);
        set_frame_level(0x20, 1);
    }

    #[test]
    fn overtaking_same_level_is_legal() {
        let _a = acquire(LockClass::FrameLatch, 0x10);
        set_frame_level(0x10, 0);
        let _b = acquire(LockClass::FrameLatch, 0x20);
        set_frame_level(0x20, 0); // left-to-right link chase
    }

    #[test]
    fn top_down_descent_is_legal() {
        let _root = acquire(LockClass::FrameLatch, 0x10);
        set_frame_level(0x10, 2);
        let _leaf = acquire(LockClass::FrameLatch, 0x20);
        set_frame_level(0x20, 0);
        let _data = acquire(LockClass::FrameLatch, 0x30);
        set_frame_level(0x30, HEAP_DATA_LEVEL);
    }

    #[test]
    #[should_panic(expected = "seqlock begin_write")]
    fn seqlock_write_without_latch_trips() {
        seqlock_write_begin(0xDEAD);
    }

    #[test]
    #[should_panic(expected = "never revalidated")]
    fn unvalidated_snapshot_trips_on_next_snapshot() {
        note_snapshot(0x10);
        note_snapshot(0x20);
    }

    #[test]
    fn snapshot_then_revalidate_then_snapshot_is_legal() {
        note_snapshot(0x10);
        note_revalidate(0x10);
        note_snapshot(0x20);
        note_revalidate(0x20);
    }

    #[test]
    fn whitelist_is_acyclic() {
        // The static whitelist must itself be a DAG (ignoring same-class
        // edges): otherwise two legal schedules could deadlock.
        const N: usize = NCLASSES;
        let classes = [
            LockClass::PaperLock,
            LockClass::RwPage,
            LockClass::HeapShard,
            LockClass::FrameLatch,
            LockClass::SlotLatch,
            LockClass::WalAppend,
            LockClass::WalSlot,
            LockClass::CommitWindow,
            LockClass::SlotsMap,
            LockClass::FreeList,
            LockClass::PoolShard,
            LockClass::HeapRecycle,
            LockClass::SessionPool,
            LockClass::WalBatch,
            LockClass::FlusherQueue,
            LockClass::HealthLatch,
        ];
        // Kahn's algorithm over the cross-class whitelist.
        let mut indeg = [0usize; N];
        for &f in &classes {
            for &t in &classes {
                if f as usize != t as usize && edge_allowed(f, t) {
                    indeg[t as usize] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..N).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &t in &classes {
                if i != t as usize && edge_allowed(classes[i], t) {
                    indeg[t as usize] -= 1;
                    if indeg[t as usize] == 0 {
                        queue.push(t as usize);
                    }
                }
            }
        }
        assert_eq!(seen, N, "whitelist contains a cross-class cycle");
    }
}
