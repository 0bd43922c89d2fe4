//! Races on the contention-free read path: the lock-free slot table
//! against `alloc` growth and `free`, the striped store counters, and the
//! sessions' published start stamps against the §5.3 reclamation horizon.
//! Small enough to run under ThreadSanitizer (see the nightly CI job).

use sagiv_blink_repro::pagestore::{
    LogicalClock, Page, PageId, PageStore, SessionRegistry, StoreConfig, StoreError, StoreStats,
};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const PAGE: usize = 256;

fn store(pool_frames: usize) -> Arc<PageStore> {
    PageStore::new(StoreConfig {
        pool_frames,
        ..StoreConfig::with_page_size(PAGE)
    })
}

/// Spawns `n` threads running `f(i)` and joins them.
fn run_threads(n: usize, f: impl Fn(usize) + Send + Sync + 'static) {
    let f = Arc::new(f);
    let threads: Vec<_> = (0..n)
        .map(|i| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f(i))
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

/// Growth publishes a slot before `alloc` returns its pid, so a reader
/// handed that pid — here through an atomic, the fastest possible route —
/// never finds it out of bounds, however the table is growing.
#[test]
fn reader_racing_alloc_growth_never_sees_out_of_bounds() {
    const ALLOCS: u32 = 4_000;
    let st = store(64);
    let latest = Arc::new(AtomicU32::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let (s, l, d) = (Arc::clone(&st), Arc::clone(&latest), Arc::clone(&done));
    run_threads(4, move |i| {
        if i < 2 {
            for _ in 0..ALLOCS {
                let pid = s.alloc().unwrap();
                l.fetch_max(pid.to_raw(), Ordering::Release);
            }
            d.store(true, Ordering::Release);
            return;
        }
        let mut reads = 0u64;
        while !d.load(Ordering::Acquire) || reads < 1_000 {
            let Some(pid) = PageId::from_raw(l.load(Ordering::Acquire)) else {
                continue;
            };
            match s.read(pid) {
                Ok(page) => assert!(page.iter().all(|&b| b == 0), "fresh page is zeroed"),
                Err(e) => panic!("read of returned {pid} failed: {e:?}"),
            }
            reads += 1;
        }
    });
    assert_eq!(st.capacity(), 2 * ALLOCS as usize);
    assert_eq!(st.live_pages(), 2 * ALLOCS as usize);
}

/// Stamps `pid`'s identity into a page image.
fn stamped(pid: PageId) -> Page {
    let mut p = Page::zeroed(PAGE);
    for chunk in p.bytes_mut().chunks_exact_mut(4).skip(8) {
        chunk.copy_from_slice(&pid.to_raw().to_le_bytes());
    }
    p
}

/// A page freed (and reallocated) under a reader: the reader gets the
/// page's own bytes — its stamp, or the zeroed image of a fresh
/// reallocation — or `PageFreed`; never bytes of another page, whatever
/// the pool evicts and reuses meanwhile.
#[test]
fn reader_racing_free_gets_the_page_or_page_freed() {
    // More live pages than frames: every round evicts, so readers keep
    // meeting frames that are being refilled for another page.
    const RING: usize = 24;
    const ROUNDS: usize = 6_000;
    let st = store(8);
    let ring: Arc<Vec<AtomicU32>> = Arc::new((0..RING).map(|_| AtomicU32::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));
    let (s, r, d) = (Arc::clone(&st), Arc::clone(&ring), Arc::clone(&done));
    run_threads(3, move |i| {
        if i == 0 {
            let mut live: Vec<PageId> = Vec::new();
            for round in 0..ROUNDS {
                let slot = round % RING;
                if live.len() == RING {
                    s.free(live[slot]).unwrap();
                }
                let pid = s.alloc().unwrap();
                s.put(pid, &stamped(pid)).unwrap();
                r[slot].store(pid.to_raw(), Ordering::Release);
                if live.len() == RING {
                    live[slot] = pid;
                } else {
                    live.push(pid);
                }
            }
            d.store(true, Ordering::Release);
            return;
        }
        let mut k = i;
        while !d.load(Ordering::Acquire) {
            k = k.wrapping_mul(31).wrapping_add(7);
            let Some(pid) = PageId::from_raw(r[k % RING].load(Ordering::Acquire)) else {
                continue;
            };
            match s.read(pid) {
                Ok(page) => {
                    let owner = u32::from_le_bytes(page[32..36].try_into().unwrap());
                    assert!(
                        owner == pid.to_raw() || page.iter().all(|&b| b == 0),
                        "read of {pid} returned bytes of page {owner}"
                    );
                }
                Err(StoreError::PageFreed(_)) => {}
                Err(e) => panic!("read of {pid} failed: {e:?}"),
            }
        }
    });
    assert_eq!(st.live_pages(), RING);
}

/// Striped counters stay exact: every bump lands, and a snapshot delta
/// over the racing interval sees all of them.
#[test]
fn striped_counter_bumps_are_exact() {
    const PER: u64 = 100_000;
    let st = store(16);
    let before = st.stats().snapshot();
    let s = Arc::clone(&st);
    run_threads(4, move |i| {
        for _ in 0..PER {
            StoreStats::bump(&s.stats().gets);
            StoreStats::add(&s.stats().wal_bytes, i as u64 + 1);
        }
    });
    let d = st.stats().snapshot().delta(&before);
    assert_eq!(d.gets, 4 * PER);
    assert_eq!(d.wal_bytes, PER * (1 + 2 + 3 + 4));
    assert_eq!(d.puts, 0);
}

/// An operation that has called `begin_op` is never behind the §5.3
/// horizon: while it runs, `min_active_start()` is at or below its stamp,
/// even though `begin_op` publishes with a store and no lock.
#[test]
fn running_op_is_never_behind_min_active_start() {
    const OPS: usize = 20_000;
    let reg = SessionRegistry::new(Arc::new(LogicalClock::new()));
    // What each worker's op in flight started at (0 = between ops).
    let running: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicU32::new(0));
    let (reg2, run, d) = (Arc::clone(&reg), Arc::clone(&running), Arc::clone(&done));
    run_threads(3, move |i| {
        if i < 2 {
            let mut s = reg2.open();
            for _ in 0..OPS {
                let t = s.begin_op();
                run[i].store(t, Ordering::SeqCst);
                std::hint::spin_loop();
                run[i].store(0, Ordering::SeqCst);
                s.end_op();
            }
            d.fetch_add(1, Ordering::SeqCst);
            return;
        }
        while d.load(Ordering::SeqCst) < 2 {
            for w in run.iter() {
                let t = w.load(Ordering::SeqCst);
                if t == 0 {
                    continue;
                }
                let horizon = reg2.min_active_start();
                // Still the same op: the horizon was computed while it ran.
                if w.load(Ordering::SeqCst) == t {
                    assert!(horizon <= t, "horizon {horizon} passed running op {t}");
                }
            }
        }
    });
    assert_eq!(reg.min_active_start(), u64::MAX, "all sessions idle");
}
