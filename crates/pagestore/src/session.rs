//! Sessions: the paper's *processes*.
//!
//! Every logical operation (search, insert, delete, compression step) is
//! carried out by a process. A [`Session`] represents one worker thread's
//! identity across many logical operations. It provides:
//!
//! * the **starting time** of the operation currently in flight, which §5.3
//!   uses to decide when a deleted node may be released ("a deleted node can
//!   be released when all the currently running processes have started after
//!   its deletion time");
//! * a record of the **locks currently held**, which lets tests assert the
//!   paper's protocol bounds (an insertion process never holds more than one
//!   lock, a compression process never more than three) and lets experiment
//!   E1 measure them;
//! * counters for **restarts** and **link follows**, the two overheads the
//!   paper argues are small (§1, §5.2).

use crate::clock::{LogicalClock, Timestamp, IDLE};
use crate::page::PageId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-session instrumentation. Plain fields: a session is single-threaded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Logical operations started.
    pub ops: u64,
    /// Paper-lock acquisitions.
    pub locks_acquired: u64,
    /// Maximum number of locks held simultaneously at any point.
    pub max_simultaneous_locks: usize,
    /// Sum over acquisitions of the number of locks held *after* acquiring;
    /// `lock_held_sum / locks_acquired` is the mean simultaneity.
    pub lock_held_sum: u64,
    /// Traversal restarts (wrong node reached; §5.2).
    pub restarts: u64,
    /// Link (right-neighbor) pointers followed during traversals.
    pub link_follows: u64,
    /// Times this session followed a deleted node's merge pointer.
    pub merge_pointer_follows: u64,
}

impl SessionStats {
    /// Mean number of locks held simultaneously, taken over acquisitions.
    pub fn mean_simultaneous_locks(&self) -> f64 {
        if self.locks_acquired == 0 {
            0.0
        } else {
            self.lock_held_sum as f64 / self.locks_acquired as f64
        }
    }

    /// Element-wise sum, for aggregating across sessions.
    pub fn merge(&mut self, other: &SessionStats) {
        self.ops += other.ops;
        self.locks_acquired += other.locks_acquired;
        self.max_simultaneous_locks = self
            .max_simultaneous_locks
            .max(other.max_simultaneous_locks);
        self.lock_held_sum += other.lock_held_sum;
        self.restarts += other.restarts;
        self.link_follows += other.link_follows;
        self.merge_pointer_follows += other.merge_pointer_follows;
    }
}

/// One session's published start stamp ([`IDLE`] between operations),
/// alone on its cache line: `begin_op`/`end_op` store into it without
/// touching any lock or any line another session writes.
#[derive(Debug)]
#[repr(align(64))]
struct StartStamp(AtomicU64);

/// Tracks every live session's current operation start time.
///
/// `min_active_start()` is the reclamation horizon of §5.3 (combined by the
/// tree with the minimum timestamp of queued compression stacks, §5.4).
/// Each session publishes its stamp in its own padded atomic; the
/// registry's mutex only guards the list of stamps, so it is taken by
/// `open`, `close` and the horizon scan, never by an operation.
#[derive(Debug)]
pub struct SessionRegistry {
    clock: Arc<LogicalClock>,
    active: Mutex<Vec<(u64, Arc<StartStamp>)>>,
    next_id: AtomicU64,
}

impl SessionRegistry {
    pub fn new(clock: Arc<LogicalClock>) -> Arc<SessionRegistry> {
        Arc::new(SessionRegistry {
            clock,
            active: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        })
    }

    /// Opens a new session (a worker's identity). The session starts idle.
    pub fn open(self: &Arc<SessionRegistry>) -> Session {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stamp = Arc::new(StartStamp(AtomicU64::new(IDLE)));
        self.active.lock().push((id, Arc::clone(&stamp)));
        Session {
            id,
            registry: Arc::clone(self),
            stamp,
            start: IDLE,
            held: Vec::with_capacity(4),
            stats: SessionStats::default(),
        }
    }

    /// The clock all sessions stamp against.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// Earliest start time among operations currently in flight ([`IDLE`] if
    /// every session is between operations). Deleted nodes stamped strictly
    /// before this may be reclaimed, as far as reader visibility goes.
    ///
    /// The stamps are `SeqCst` on both sides: once `begin_op` has returned
    /// `t`, every later scan (in the single total order of `SeqCst`
    /// operations) sees `t` or a later stamp of the same session, so a
    /// running operation is never behind the horizon.
    pub fn min_active_start(&self) -> Timestamp {
        self.active
            .lock()
            .iter()
            .map(|(_, s)| s.0.load(Ordering::SeqCst))
            .min()
            .unwrap_or(IDLE)
    }

    /// Number of sessions currently open (for diagnostics).
    pub fn session_count(&self) -> usize {
        self.active.lock().len()
    }

    fn close(&self, id: u64) {
        let mut active = self.active.lock();
        if let Some(i) = active.iter().position(|&(sid, _)| sid == id) {
            active.swap_remove(i);
        }
    }
}

/// One worker's identity: operation timestamps, held locks, instrumentation.
#[derive(Debug)]
pub struct Session {
    id: u64,
    registry: Arc<SessionRegistry>,
    /// This session's slot in the registry (see [`StartStamp`]).
    stamp: Arc<StartStamp>,
    start: Timestamp,
    held: Vec<PageId>,
    stats: SessionStats,
}

impl Session {
    /// Unique id (used as lock owner tag).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Marks the start of a logical operation; returns its start timestamp.
    pub fn begin_op(&mut self) -> Timestamp {
        let t = self.registry.clock.tick();
        self.publish(t);
        self.stats.ops += 1;
        t
    }

    /// Marks the end of the current logical operation. The process must have
    /// released every lock (all paper protocols do).
    pub fn end_op(&mut self) {
        debug_assert!(
            self.held.is_empty(),
            "logical operation ended while holding locks: {:?}",
            self.held
        );
        self.publish(IDLE);
    }

    /// Records `t` as this session's start stamp, locally and in its
    /// registry slot (`SeqCst`: see [`SessionRegistry::min_active_start`]).
    fn publish(&mut self, t: Timestamp) {
        self.start = t;
        self.stamp.0.store(t, Ordering::SeqCst);
    }

    /// Start timestamp of the operation in flight ([`IDLE`] when idle).
    pub fn start_stamp(&self) -> Timestamp {
        self.start
    }

    /// Re-stamps the running operation to *now* without counting a new op.
    ///
    /// Used by long-lived compression workers between queue items so an idle
    /// worker does not hold back the reclamation horizon.
    pub fn refresh_stamp(&mut self) -> Timestamp {
        let t = self.registry.clock.tick();
        self.publish(t);
        t
    }

    /// The pages this session currently holds paper locks on, in acquisition
    /// order.
    pub fn held_locks(&self) -> &[PageId] {
        &self.held
    }

    /// Instrumentation so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Resets instrumentation (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Records a traversal restart (§5.2).
    pub fn note_restart(&mut self) {
        self.stats.restarts += 1;
    }

    /// Records following a link (right-neighbor) pointer.
    pub fn note_link_follow(&mut self) {
        self.stats.link_follows += 1;
    }

    /// Records following a deleted node's merge pointer.
    pub fn note_merge_pointer(&mut self) {
        self.stats.merge_pointer_follows += 1;
    }

    pub(crate) fn note_lock(&mut self, pid: PageId) {
        debug_assert!(
            !self.held.contains(&pid),
            "session {} locked {} twice",
            self.id,
            pid
        );
        self.held.push(pid);
        self.stats.locks_acquired += 1;
        self.stats.lock_held_sum += self.held.len() as u64;
        self.stats.max_simultaneous_locks = self.stats.max_simultaneous_locks.max(self.held.len());
    }

    pub(crate) fn note_unlock(&mut self, pid: PageId) {
        match self.held.iter().rposition(|&p| p == pid) {
            Some(i) => {
                self.held.remove(i);
            }
            None => panic!(
                "session {} unlocked {} which it does not hold",
                self.id, pid
            ),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            debug_assert!(self.held.is_empty(), "session dropped while holding locks");
        }
        self.registry.close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<SessionRegistry> {
        SessionRegistry::new(Arc::new(LogicalClock::new()))
    }

    #[test]
    fn begin_end_op_updates_horizon() {
        let reg = registry();
        let mut s1 = reg.open();
        let mut s2 = reg.open();
        assert_eq!(reg.min_active_start(), IDLE);

        let t1 = s1.begin_op();
        assert_eq!(reg.min_active_start(), t1);
        let t2 = s2.begin_op();
        assert!(t2 > t1);
        assert_eq!(reg.min_active_start(), t1);

        s1.end_op();
        assert_eq!(reg.min_active_start(), t2);
        s2.end_op();
        assert_eq!(reg.min_active_start(), IDLE);
    }

    #[test]
    fn closing_sessions_removes_them() {
        let reg = registry();
        let s = reg.open();
        assert_eq!(reg.session_count(), 1);
        drop(s);
        assert_eq!(reg.session_count(), 0);
    }

    #[test]
    fn lock_bookkeeping_tracks_max_and_mean() {
        let reg = registry();
        let mut s = reg.open();
        let a = PageId::from_raw(1).unwrap();
        let b = PageId::from_raw(2).unwrap();
        let c = PageId::from_raw(3).unwrap();
        s.note_lock(a); // held 1
        s.note_lock(b); // held 2
        s.note_lock(c); // held 3
        s.note_unlock(b);
        s.note_unlock(a);
        s.note_unlock(c);
        let st = s.stats();
        assert_eq!(st.locks_acquired, 3);
        assert_eq!(st.max_simultaneous_locks, 3);
        assert!((st.mean_simultaneous_locks() - 2.0).abs() < 1e-9);
        assert!(s.held_locks().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_without_lock_panics() {
        let reg = registry();
        let mut s = reg.open();
        s.note_unlock(PageId::from_raw(5).unwrap());
    }

    #[test]
    fn refresh_stamp_moves_horizon_forward() {
        let reg = registry();
        let mut s = reg.open();
        let t0 = s.begin_op();
        let t1 = s.refresh_stamp();
        assert!(t1 > t0);
        assert_eq!(reg.min_active_start(), t1);
        s.end_op();
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SessionStats {
            ops: 1,
            locks_acquired: 2,
            max_simultaneous_locks: 1,
            lock_held_sum: 2,
            restarts: 0,
            link_follows: 3,
            merge_pointer_follows: 0,
        };
        let b = SessionStats {
            ops: 2,
            locks_acquired: 4,
            max_simultaneous_locks: 3,
            lock_held_sum: 8,
            restarts: 1,
            link_follows: 0,
            merge_pointer_follows: 2,
        };
        a.merge(&b);
        assert_eq!(a.ops, 3);
        assert_eq!(a.locks_acquired, 6);
        assert_eq!(a.max_simultaneous_locks, 3);
        assert_eq!(a.lock_held_sum, 10);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.link_follows, 3);
        assert_eq!(a.merge_pointer_follows, 2);
    }
}
