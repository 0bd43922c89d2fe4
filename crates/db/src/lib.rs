//! # blink-db — the unified `Db` facade
//!
//! One production-shaped handle over the whole system: the Sagiv B\*-tree
//! as a **dense index** (§2.1: leaves hold `(v, p)` pairs where `p` points
//! to the record with key value `v`), the **record heap** holding the value
//! bytes, and the **WAL-backed durable store** — composed behind a
//! byte-value KV API instead of three handles the caller wires by hand.
//!
//! ```text
//!            Db ── session() ── DbSession: put / get / delete / scan
//!            │
//!     ┌──────┴────────┐
//!  BLinkTree       RecordHeap          (index: key → RecordId;
//!     │                │                heap: RecordId → bytes)
//!     └──────┬────────┘
//!        PageStore  ── one buffer pool, one page file, one WAL
//!            │
//!       DurableStore (optional: crash recovery on open)
//! ```
//!
//! Index and heap **share one [`blink_pagestore::PageStore`]**: every page
//! mutation of either rides the same write-ahead log, so a single recovery
//! pass restores both, and the `Db` reconciles them on open — no dangling
//! `RecordId` in any leaf, no unreachable live record in the heap.
//!
//! The `Db` owns the record lifecycle: `put` over an existing key rewrites
//! the record in place when it fits (or frees the old record after
//! re-pointing the index), `delete` frees the record, and scans stream
//! `(key, value)` pairs through a lazy leaf-link cursor without
//! materializing the range.
//!
//! ## Quick start
//!
//! ```
//! use blink_db::{Db, DbConfig};
//!
//! let db = Db::open(DbConfig::in_memory()).unwrap();
//! let mut s = db.session();
//! s.put(7, b"value bytes").unwrap();
//! assert_eq!(s.get(7).unwrap().as_deref(), Some(&b"value bytes"[..]));
//! for pair in s.scan(0, 100) {
//!     let (k, v) = pair.unwrap();
//!     assert_eq!((k, v.as_slice()), (7, &b"value bytes"[..]));
//! }
//! assert!(s.delete(7).unwrap());
//! ```
//!
//! Durable: `Db::open(DbConfig::durable("/path/to/db"))` — created on
//! first open, WAL-replayed and index/heap-reconciled on every later one.

#![forbid(unsafe_code)]

pub mod config;
pub mod db;
pub mod metrics;
pub mod scan;

pub use config::DbConfig;
pub use db::{Db, DbSession, KvRecovery, PutOutcome};
pub use metrics::MetricsSnapshot;
pub use scan::DbScan;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn mem_db(k: usize) -> Db {
        Db::open(DbConfig::in_memory().with_k(k)).unwrap()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blink-db-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let db = mem_db(4);
        let mut s = db.session();
        for i in 0..2_000u64 {
            let v = format!("value-{i}-{}", "x".repeat((i % 40) as usize));
            assert_eq!(s.put(i, v.as_bytes()).unwrap(), PutOutcome::Inserted);
        }
        for i in (0..2_000u64).step_by(7) {
            let v = s.get(i).unwrap().expect("present");
            assert!(String::from_utf8(v)
                .unwrap()
                .starts_with(&format!("value-{i}-")));
        }
        assert_eq!(s.get(5_000).unwrap(), None);
        assert!(s.delete(1_000).unwrap());
        assert!(!s.delete(1_000).unwrap());
        assert_eq!(s.get(1_000).unwrap(), None);
        assert_eq!(s.count().unwrap(), 1_999);
        db.verify().unwrap().assert_ok();
    }

    #[test]
    fn overwrite_frees_or_reuses_the_old_record() {
        let db = mem_db(4);
        let mut s = db.session();
        for i in 0..500u64 {
            s.put(i, &[1u8; 64]).unwrap();
        }
        let live_before = db.heap().live_records().unwrap().len();
        assert_eq!(live_before, 500);
        // Same-size overwrites: in place, no growth.
        for i in 0..500u64 {
            assert_eq!(s.put(i, &[2u8; 64]).unwrap(), PutOutcome::Replaced);
        }
        assert_eq!(db.heap().live_records().unwrap().len(), 500);
        // Growing overwrites: new record, old one freed — still no leak.
        for i in 0..500u64 {
            assert_eq!(s.put(i, &[3u8; 200]).unwrap(), PutOutcome::Replaced);
        }
        assert_eq!(db.heap().live_records().unwrap().len(), 500);
        for i in 0..500u64 {
            assert_eq!(s.get(i).unwrap().unwrap(), vec![3u8; 200]);
        }
        db.verify().unwrap().assert_ok();
    }

    #[test]
    fn get_with_is_zero_copy() {
        let db = mem_db(4);
        let mut s = db.session();
        s.put(1, b"abcdef").unwrap();
        assert_eq!(s.get_with(1, |b| b.len()).unwrap(), Some(6));
        assert_eq!(s.get_with(2, |b| b.len()).unwrap(), None);
    }

    #[test]
    fn scan_streams_in_order_and_joins_values() {
        let db = mem_db(8);
        let mut s = db.session();
        for i in (0..3_000u64).step_by(3) {
            s.put(i, format!("v{i}").as_bytes()).unwrap();
        }
        let mut seen = 0u64;
        let mut prev = None;
        for pair in s.scan(300, 600) {
            let (k, v) = pair.unwrap();
            assert_eq!(v, format!("v{k}").into_bytes());
            assert!((300..=600).contains(&k));
            if let Some(p) = prev {
                assert!(k > p);
            }
            prev = Some(k);
            seen += 1;
        }
        assert_eq!(seen, 101); // 300, 303, ..., 600
        assert_eq!(s.scan(10, 9).count(), 0, "lo > hi is empty");
    }

    #[test]
    fn concurrent_sessions_and_scans() {
        let db = Arc::new(mem_db(8));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.session();
                    let base = w * 100_000;
                    for i in 0..2_000u64 {
                        s.put(base + i, format!("w{w}:{i}").as_bytes()).unwrap();
                    }
                    // Overwrite half, delete a quarter, while others churn.
                    for i in 0..1_000u64 {
                        s.put(base + i, format!("w{w}:{i}:v2").as_bytes()).unwrap();
                    }
                    for i in 1_500..2_000u64 {
                        assert!(s.delete(base + i).unwrap());
                    }
                    // Scan own range under concurrency.
                    let mut n = 0;
                    for pair in s.scan(base, base + 99_999) {
                        let (k, v) = pair.unwrap();
                        assert!(v.starts_with(format!("w{w}:").as_bytes()), "key {k}");
                        n += 1;
                    }
                    assert_eq!(n, 1_500);
                });
            }
        });
        let mut s = db.session();
        assert_eq!(s.count().unwrap(), 4 * 1_500);
        // Index entries and live heap records must agree exactly.
        assert_eq!(db.heap().live_records().unwrap().len(), 4 * 1_500);
        db.verify().unwrap().assert_ok();
    }

    #[test]
    fn durable_reopen_preserves_everything() {
        let dir = tmpdir("reopen");
        let cfg = || DbConfig::durable(&dir).with_k(4);
        {
            let db = Db::open(cfg()).unwrap();
            let mut s = db.session();
            for i in 0..1_000u64 {
                s.put(i, format!("persisted-{i}").as_bytes()).unwrap();
            }
            for i in 0..100u64 {
                s.delete(i * 10).unwrap();
            }
            db.sync().unwrap();
        }
        let db = Db::open(cfg()).unwrap();
        let rec = db.recovery().expect("durable reopen reports recovery");
        assert_eq!(rec.orphan_records_freed, 0, "clean shutdown leaks nothing");
        let mut s = db.session();
        assert_eq!(s.count().unwrap(), 900);
        for i in 0..1_000u64 {
            let got = s.get(i).unwrap();
            if i % 10 == 0 && i / 10 < 100 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got.unwrap(), format!("persisted-{i}").into_bytes());
            }
        }
        db.verify().unwrap().assert_ok();
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_mid_put_recovers_mutually_consistent() {
        let dir = tmpdir("midput");
        let cfg = || DbConfig::durable(&dir).with_k(4);
        {
            let db = Db::open(cfg()).unwrap();
            let mut s = db.session();
            for i in 0..200u64 {
                s.put(i, &[i as u8; 48]).unwrap();
            }
            // Arm the crash so it lands inside an upcoming put (after its
            // heap record commits, before the index write does).
            db.durable().unwrap().fault().crash_after_wal_records(1);
            let err = s.put(777, &[7u8; 48]);
            assert!(err.is_err(), "the injected crash must surface");
        }
        let db = Db::open(cfg()).unwrap();
        let rec = db.recovery().unwrap();
        assert!(
            rec.orphan_records_freed <= 1,
            "at most the in-flight record is orphaned"
        );
        let mut s = db.session();
        // All committed pairs are intact; the in-flight key is absent.
        for i in 0..200u64 {
            assert_eq!(s.get(i).unwrap().unwrap(), vec![i as u8; 48]);
        }
        assert_eq!(s.get(777).unwrap(), None);
        // Index entries and live records agree: nothing dangles, nothing
        // leaks.
        assert_eq!(db.heap().live_records().unwrap().len(), s.count().unwrap());
        db.verify().unwrap().assert_ok();
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessionless_get_reads_through_the_pool() {
        let db = Arc::new(mem_db(4));
        {
            let mut s = db.session();
            for i in 0..500u64 {
                s.put(i, format!("v{i}").as_bytes()).unwrap();
            }
        }
        // No DbSession anywhere below: pure `&Db` reads from many threads.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        assert_eq!(db.get(i).unwrap().unwrap(), format!("v{i}").into_bytes());
                        assert_eq!(
                            db.get_with(i, |b| b.len()).unwrap(),
                            Some(format!("v{i}").len())
                        );
                    }
                    assert_eq!(db.get(10_000).unwrap(), None);
                });
            }
        });
        db.verify().unwrap().assert_ok();
    }

    #[test]
    fn overwrite_churn_reuses_slots_without_growing_the_heap() {
        let db = Db::open(DbConfig::in_memory().with_k(4).with_heap_shards(2)).unwrap();
        let mut s = db.session();
        for i in 0..400u64 {
            s.put(i, &[1u8; 64]).unwrap();
        }
        let pages_after_load = db.heap().page_count();
        // Delete/re-put churn: every re-put should land in a freed slot.
        for round in 0..5u8 {
            for i in (0..400u64).step_by(2) {
                assert!(s.delete(i).unwrap());
            }
            for i in (0..400u64).step_by(2) {
                s.put(i, &[round; 64]).unwrap();
            }
        }
        let snap = db.store().stats().snapshot();
        assert!(
            snap.heap_slots_reused >= 400,
            "churn must reuse freed slots (got {})",
            snap.heap_slots_reused
        );
        assert!(
            db.heap().page_count() <= pages_after_load + db.heap().shard_count() + 1,
            "slot reuse must keep the heap from growing: {} pages after churn vs {} after load",
            db.heap().page_count(),
            pages_after_load
        );
        for i in 0..400u64 {
            let want = if i % 2 == 0 {
                vec![4u8; 64]
            } else {
                vec![1u8; 64]
            };
            assert_eq!(s.get(i).unwrap().unwrap(), want);
        }
        db.verify().unwrap().assert_ok();
    }

    #[test]
    fn double_frees_are_counted_not_ignored() {
        let db = Arc::new(mem_db(8));
        // Hammer one small key set with racing overwrites and deletes from
        // several threads: some frees must lose the race and be counted.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.session();
                    for i in 0..3_000u64 {
                        let key = i % 17;
                        if (i + t) % 3 == 0 {
                            let _ = s.delete(key);
                        } else {
                            // Alternate sizes so overwrites take the
                            // move-then-free path, racing other movers.
                            let len = if i % 2 == 0 { 16 } else { 120 };
                            s.put(key, &vec![t as u8; len]).unwrap();
                        }
                    }
                });
            }
        });
        db.verify().unwrap().assert_ok();
        let mut s = db.session();
        assert_eq!(db.heap().live_records().unwrap().len(), s.count().unwrap());
        // The stat exists and the workload above is allowed to have hit it;
        // what must never happen is an error escaping a benign double-free.
        let _ = db.store().stats().snapshot().heap_double_frees;
    }

    /// Checksums and write-back follow the backend, not a config knob: the
    /// page file gets both, memory gets neither.
    #[test]
    fn checksums_and_write_back_follow_the_backend() {
        use blink_pagestore::{verify_page_crc, PAGE_CRC_LEN, PAGE_CRC_OFFSET};
        use std::time::{Duration, Instant};
        const FRAMES: usize = 64; // flusher low watermark: 64 / 8 = 8 dirty
        let crc_field = |b: &[u8]| {
            u32::from_le_bytes(
                b[PAGE_CRC_OFFSET..PAGE_CRC_OFFSET + PAGE_CRC_LEN]
                    .try_into()
                    .unwrap(),
            )
        };
        let load = |db: &Db| {
            let mut s = db.session();
            for i in 0..3_000u64 {
                s.put(i, &[i as u8; 64]).unwrap();
            }
        };

        let mut mem = DbConfig::in_memory().with_k(8);
        mem.pool_frames = FRAMES;
        let db = Db::open(mem).unwrap();
        load(&db);
        let store = db.store();
        let pages = store.allocated_pages();
        assert!(pages.len() > 2 * FRAMES, "the load must overflow the pool");
        // Reading every page misses the pool for most of them, so their
        // frames are filled from `MemBackend` images — unstamped ones.
        for &pid in &pages {
            assert_eq!(
                crc_field(&store.read(pid).unwrap()),
                0,
                "{pid:?} was stamped"
            );
        }
        std::thread::sleep(Duration::from_millis(20)); // ~10 flusher ticks
        assert_eq!(
            store.stats().snapshot().flusher_wakeups,
            0,
            "no flusher in memory"
        );
        drop(db);

        let dir = tmpdir("backend-policy");
        let mut durable = DbConfig::durable(&dir).with_k(8);
        durable.pool_frames = FRAMES;
        durable.fsync = blink_durable::FsyncPolicy::Never;
        let db = Db::open(durable).unwrap();
        load(&db);
        let t0 = Instant::now();
        while db.store().stats().snapshot().flusher_wakeups == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "the flusher never woke"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        db.checkpoint().unwrap();
        db.sync().unwrap();
        let file = std::fs::read(dir.join("pages.db")).unwrap();
        let mut stamped = 0;
        for image in file.chunks(db.store().page_size()) {
            if image.iter().all(|&b| b == 0) {
                continue; // allocated or grown, never written: unstamped
            }
            assert!(verify_page_crc(image), "a pages.db image fails its CRC");
            assert_ne!(crc_field(image), 0, "a written pages.db image is unstamped");
            stamped += 1;
        }
        assert!(stamped > 2 * FRAMES, "only {stamped} stamped images");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_is_durable_only() {
        let db = mem_db(4);
        assert!(db.checkpoint().is_err());
        assert!(db.sync().is_ok());
    }
}
