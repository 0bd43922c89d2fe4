//! Background write-back: a dedicated thread that drains dirty frames to
//! the backend so foreground evictions almost never pay a
//! [`crate::backend::PageBackend::write`].
//!
//! ## Protocol
//!
//! The thread wakes on a short tick (or a [`FlusherHandle::kick_and_wait`]
//! nudge from a throttled writer) and asks the store for one
//! [`crate::store::PageStore::flusher_pass`]: if the pool's exact
//! dirty-page gauge is above a **low watermark**, dirty frames are written
//! back *in clock-hand order* — the frames the CLOCK will evict soonest
//! are cleaned first, so the foreground finds clean victims. Writers only
//! block above a **high watermark**, and then only in short bounded waits
//! on the drain condvar (recorded in the `flusher_backpressure`
//! histogram), so a write burst cannot fill the pool with dirty frames
//! faster than the backend absorbs them.
//!
//! ## Lifetime
//!
//! The thread holds only a `Weak<PageStore>`: it upgrades per pass and
//! exits when the store is gone. `PageStore::drop` calls
//! [`FlusherHandle::stop`], which joins the thread — unless the flusher
//! thread itself dropped the last `Arc` at the end of a pass, in which
//! case `stop` detaches instead of self-joining.
//!
//! ## Locking
//!
//! The control mutex is class [`LockClass::FlusherQueue`] — a pure leaf,
//! held only around the shutdown flag and condvar waits. The write-back
//! pass itself runs with no flusher lock held and takes the store's
//! ordinary `FrameLatch → SlotLatch → backend` path.

use crate::audit::{self, Audited, LockClass};
use crate::store::PageStore;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// How long the flusher sleeps between unprompted passes.
const TICK: Duration = Duration::from_millis(2);

/// One bounded wait on the drain condvar inside
/// [`FlusherHandle::kick_and_wait`].
const DRAIN_WAIT: Duration = Duration::from_millis(5);

/// Total bound on a single backpressure stall: the writer re-checks its
/// predicate each `DRAIN_WAIT` and gives up after this long so a stuck
/// backend degrades throughput, never liveness.
const DRAIN_DEADLINE: Duration = Duration::from_millis(50);

#[derive(Debug, Default)]
struct FlusherCtl {
    shutdown: bool,
}

/// State shared between the flusher thread and the store's foreground.
#[derive(Debug, Default)]
struct FlusherShared {
    ctl: Mutex<FlusherCtl>,
    /// Signaled to wake the flusher early (throttled writer, shutdown).
    cv_work: Condvar,
    /// Signaled after every pass; throttled writers wait here.
    cv_drain: Condvar,
}

impl FlusherShared {
    /// The only place `ctl` is locked: registers as `FlusherQueue` (a leaf
    /// — nothing else is ever acquired under it).
    fn lock_ctl(&self) -> Audited<MutexGuard<'_, FlusherCtl>> {
        audit::audited(
            LockClass::FlusherQueue,
            self as *const FlusherShared as usize,
            || self.ctl.lock(),
        )
    }
}

/// Owner handle held by the store; stops and joins the thread on drop of
/// the store.
#[derive(Debug)]
pub(crate) struct FlusherHandle {
    shared: Arc<FlusherShared>,
    thread_id: ThreadId,
    join: JoinHandle<()>,
}

impl FlusherHandle {
    /// Wakes the flusher and waits (bounded) until `drained()` holds. Used
    /// by `PageStore::throttle_dirty` when the dirty gauge crosses the
    /// high watermark.
    pub(crate) fn kick_and_wait(&self, drained: impl Fn() -> bool) {
        let t0 = Instant::now();
        let mut ctl = self.shared.lock_ctl();
        self.shared.cv_work.notify_one();
        while !drained() && !ctl.shutdown && t0.elapsed() < DRAIN_DEADLINE {
            self.shared
                .cv_drain
                .wait_until(ctl.guard_mut(), Instant::now() + DRAIN_WAIT);
        }
    }

    /// Signals shutdown and joins the thread. When called *from* the
    /// flusher thread (it dropped the last store `Arc` after a pass), the
    /// join is skipped — the loop observes `shutdown` (or the dead `Weak`)
    /// and exits on its own.
    pub(crate) fn stop(self) {
        {
            let mut ctl = self.shared.lock_ctl();
            ctl.shutdown = true;
            self.shared.cv_work.notify_all();
            self.shared.cv_drain.notify_all();
        }
        if thread::current().id() == self.thread_id {
            return; // self-join would deadlock; detach instead
        }
        let _ = self.join.join();
    }
}

/// Spawns the write-back thread for `store`. Called once from
/// `PageStore::with_parts` for a persistent backend with a buffer pool.
pub(crate) fn spawn(store: &Arc<PageStore>) -> FlusherHandle {
    let shared = Arc::new(FlusherShared::default());
    let weak = Arc::downgrade(store);
    let thread_shared = Arc::clone(&shared);
    let join = thread::Builder::new()
        .name("blink-flusher".into())
        .spawn(move || flusher_main(weak, thread_shared))
        .expect("spawn flusher thread");
    FlusherHandle {
        shared,
        thread_id: join.thread().id(),
        join,
    }
}

fn flusher_main(store: Weak<PageStore>, shared: Arc<FlusherShared>) {
    loop {
        {
            let mut ctl = shared.lock_ctl();
            if ctl.shutdown {
                return;
            }
            shared
                .cv_work
                .wait_until(ctl.guard_mut(), Instant::now() + TICK);
            if ctl.shutdown {
                return;
            }
        }
        // Upgrade per pass: the Weak is the only reference this thread
        // keeps, so a dropped store ends the loop. The temporary Arc keeps
        // the store alive for the duration of the pass — if it turns out
        // to be the *last* one, dropping it runs `PageStore::drop` right
        // here, whose `stop` detaches instead of self-joining.
        let Some(store) = store.upgrade() else {
            return;
        };
        store.flusher_pass();
        drop(store);
        let _ctl = shared.lock_ctl();
        shared.cv_drain.notify_all();
    }
}
