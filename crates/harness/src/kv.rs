//! Multi-threaded KV workload runner over the [`Db`] facade.
//!
//! The index runner ([`crate::runner`]) drives u64→u64 trees through
//! [`blink_baselines::ConcurrentIndex`]; this module drives the full KV
//! stack — byte values through the record heap, streaming range scans
//! through the leaf-link cursor — which is what `exp13_kv` measures.

use blink_db::Db;
use blink_pagestore::{HistSnapshot, SessionStats, StatsSnapshot};
use blink_workload::{KeyDist, KeyPicker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A KV operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMix {
    pub get_pct: u8,
    pub put_pct: u8,
    pub delete_pct: u8,
    pub scan_pct: u8,
}

impl KvMix {
    /// 85% gets / 10% puts / 5% scans.
    pub const READ_HEAVY: KvMix = KvMix {
        get_pct: 85,
        put_pct: 10,
        delete_pct: 0,
        scan_pct: 5,
    };
    /// 40% gets / 30% puts / 20% deletes / 10% scans.
    pub const BALANCED: KvMix = KvMix {
        get_pct: 40,
        put_pct: 30,
        delete_pct: 20,
        scan_pct: 10,
    };
    /// 20% gets / 20% puts / 60% scans — the cursor's regime.
    pub const SCAN_HEAVY: KvMix = KvMix {
        get_pct: 20,
        put_pct: 20,
        delete_pct: 0,
        scan_pct: 60,
    };
    /// Puts only (bulk load / overwrite churn).
    pub const PUT_ONLY: KvMix = KvMix {
        get_pct: 0,
        put_pct: 100,
        delete_pct: 0,
        scan_pct: 0,
    };
    /// Scans only (range-query service).
    pub const SCAN_ONLY: KvMix = KvMix {
        get_pct: 0,
        put_pct: 0,
        delete_pct: 0,
        scan_pct: 100,
    };

    /// Validates the percentages.
    pub fn check(&self) {
        assert_eq!(
            u32::from(self.get_pct)
                + u32::from(self.put_pct)
                + u32::from(self.delete_pct)
                + u32::from(self.scan_pct),
            100,
            "kv mix must sum to 100"
        );
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        format!(
            "{}g/{}p/{}d/{}s",
            self.get_pct, self.put_pct, self.delete_pct, self.scan_pct
        )
    }
}

/// Parameters of one measured KV run.
#[derive(Debug, Clone)]
pub struct KvRunConfig {
    /// Worker threads (one `DbSession` each).
    pub threads: usize,
    /// Operations per thread (ignored when `duration` is set).
    pub ops_per_thread: usize,
    /// If set, run for this long instead of a fixed op count.
    pub duration: Option<Duration>,
    /// Key space `0..key_space`.
    pub key_space: u64,
    /// Key distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: KvMix,
    /// Value payload size in bytes.
    pub value_len: usize,
    /// Width of each scan window in keys (`[k, k + scan_len - 1]`).
    pub scan_len: u64,
    /// Keys preloaded before measuring (spread evenly over the space).
    pub preload: u64,
    /// Base seed; thread `t` uses `seed + t`.
    pub seed: u64,
}

impl Default for KvRunConfig {
    fn default() -> KvRunConfig {
        KvRunConfig {
            threads: 4,
            ops_per_thread: 10_000,
            duration: None,
            key_space: 100_000,
            dist: KeyDist::Uniform,
            mix: KvMix::BALANCED,
            value_len: 64,
            scan_len: 100,
            preload: 50_000,
            seed: 0x000B_11AD_5EED,
        }
    }
}

/// Aggregated results of one KV run.
#[derive(Debug)]
pub struct KvRunResult {
    /// Wall-clock time of the measured phase.
    pub wall: Duration,
    /// Operations completed (a whole scan counts as one op).
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Latency per operation kind (ns).
    pub get_lat: HistSnapshot,
    pub put_lat: HistSnapshot,
    pub delete_lat: HistSnapshot,
    pub scan_lat: HistSnapshot,
    /// Pairs and value bytes streamed by scans.
    pub scanned_pairs: u64,
    pub scanned_bytes: u64,
    /// Merged per-session stats (restarts, link follows, locks).
    pub sessions: SessionStats,
    /// Store-counter delta over the measured phase (heap shard contention,
    /// slot reuse, page recycling, WAL traffic, ...). The heap fields are
    /// what `exp14` plots: `heap_shard_contended` / `heap_shard_wait_ns`
    /// are the allocator-mutex story, `heap_slots_reused` /
    /// `heap_pages_recycled` the space-reuse story.
    pub store: StatsSnapshot,
    /// Heap gauges sampled at the end of the run.
    pub heap_live_records: u64,
    pub heap_open_pages: usize,
    pub heap_queued_pages: usize,
    pub heap_pages: usize,
}

impl KvRunResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.wall.as_secs_f64()
    }

    /// Pairs streamed by scans, per second.
    pub fn scanned_pairs_per_sec(&self) -> f64 {
        self.scanned_pairs as f64 / self.wall.as_secs_f64()
    }

    /// Value bytes streamed by scans, in MB/s.
    pub fn scan_mb_per_sec(&self) -> f64 {
        self.scanned_bytes as f64 / 1e6 / self.wall.as_secs_f64()
    }

    /// Heap-shard mutex waits per operation (0.0 for an idle run). An
    /// all-thread write workload on one shard pushes this toward 1; with
    /// enough shards it collapses toward 0.
    pub fn heap_contention_rate(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.store.heap_shard_contended as f64 / self.total_ops as f64
        }
    }

    /// Milliseconds spent waiting on heap shard mutexes, across threads.
    pub fn heap_wait_ms(&self) -> f64 {
        self.store.heap_shard_wait_ns as f64 / 1e6
    }

    /// Tail of this run's heap shard-wait distribution: the `p`-th
    /// percentile wait in microseconds, from the store's log-bucketed wait
    /// histogram (windowed — the delta covers exactly the measured phase).
    /// `None` when the run never contended.
    pub fn heap_wait_percentile_us(&self, p: f64) -> Option<f64> {
        self.store
            .heap_wait_percentile_ns(p)
            .map(|ns| ns as f64 / 1e3)
    }

    /// WAL bytes appended per completed operation — the write-amplification
    /// figure `exp15` sweeps (0.0 for in-memory stores).
    pub fn wal_bytes_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.store.wal_bytes as f64 / self.total_ops as f64
        }
    }
}

/// Deterministic value payload for `key` (first bytes identify the key so
/// readers can spot cross-key corruption).
pub fn value_for(key: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(key % 251) as u8; len];
    let tag = key.to_le_bytes();
    let n = len.min(8);
    v[..n].copy_from_slice(&tag[..n]);
    v
}

/// Preloads `cfg.preload` keys spread evenly over the key space.
pub fn preload_kv(db: &Db, cfg: &KvRunConfig) {
    if cfg.preload == 0 {
        return;
    }
    let mut s = db.session();
    let stride = (cfg.key_space / cfg.preload).max(1);
    for i in 0..cfg.preload {
        let key = (i * stride) % cfg.key_space;
        s.put(key, &value_for(key, cfg.value_len)).expect("preload");
    }
}

/// Runs the measured phase (after preloading) and aggregates metrics.
pub fn run_kv(db: &Arc<Db>, cfg: &KvRunConfig) -> KvRunResult {
    cfg.mix.check();
    preload_kv(db, cfg);

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let mut result = KvRunResult {
        wall: Duration::ZERO,
        total_ops: 0,
        errors: 0,
        get_lat: HistSnapshot::new(),
        put_lat: HistSnapshot::new(),
        delete_lat: HistSnapshot::new(),
        scan_lat: HistSnapshot::new(),
        scanned_pairs: 0,
        scanned_bytes: 0,
        sessions: SessionStats::default(),
        store: StatsSnapshot::default(),
        heap_live_records: 0,
        heap_open_pages: 0,
        heap_queued_pages: 0,
        heap_pages: 0,
    };
    let store_before = db.store().stats().snapshot();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let db = Arc::clone(db);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || {
                let mut session = db.session();
                let mut picker =
                    KeyPicker::new(cfg.key_space, cfg.dist.clone(), cfg.seed + t as u64);
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64) << 32);
                let mut get_lat = HistSnapshot::new();
                let mut put_lat = HistSnapshot::new();
                let mut delete_lat = HistSnapshot::new();
                let mut scan_lat = HistSnapshot::new();
                let (mut pairs, mut bytes) = (0u64, 0u64);
                let (mut errors, mut ops) = (0u64, 0u64);
                barrier.wait();
                loop {
                    if cfg.duration.is_some() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    } else if ops >= cfg.ops_per_thread as u64 {
                        break;
                    }
                    let key = picker.next_key();
                    let roll = rng.gen_range(0..100u8);
                    let t0 = Instant::now();
                    if roll < cfg.mix.get_pct {
                        match session.get_with(key, |b| b.len()) {
                            Ok(_) => {}
                            Err(_) => errors += 1,
                        }
                        get_lat.record(t0.elapsed().as_nanos() as u64);
                    } else if roll < cfg.mix.get_pct + cfg.mix.put_pct {
                        match session.put(key, &value_for(key, cfg.value_len)) {
                            Ok(_) => {}
                            Err(_) => errors += 1,
                        }
                        put_lat.record(t0.elapsed().as_nanos() as u64);
                    } else if roll < cfg.mix.get_pct + cfg.mix.put_pct + cfg.mix.delete_pct {
                        match session.delete(key) {
                            Ok(_) => {}
                            Err(_) => errors += 1,
                        }
                        delete_lat.record(t0.elapsed().as_nanos() as u64);
                    } else {
                        let hi = key.saturating_add(cfg.scan_len.saturating_sub(1));
                        let mut failed = false;
                        for pair in session.scan(key, hi) {
                            match pair {
                                Ok((_, v)) => {
                                    pairs += 1;
                                    bytes += v.len() as u64;
                                }
                                Err(_) => {
                                    failed = true;
                                    break;
                                }
                            }
                        }
                        if failed {
                            errors += 1;
                        }
                        scan_lat.record(t0.elapsed().as_nanos() as u64);
                    }
                    ops += 1;
                }
                let stats = session.inner().stats();
                (
                    get_lat, put_lat, delete_lat, scan_lat, pairs, bytes, stats, errors, ops,
                )
            }));
        }

        barrier.wait();
        let t0 = Instant::now();
        if let Some(d) = cfg.duration {
            std::thread::sleep(d);
            stop.store(true, Ordering::Relaxed);
        }
        for h in handles {
            let (get, put, delete, scan, pairs, bytes, stats, errors, ops) =
                h.join().expect("kv worker");
            result.get_lat.merge(&get);
            result.put_lat.merge(&put);
            result.delete_lat.merge(&delete);
            result.scan_lat.merge(&scan);
            result.scanned_pairs += pairs;
            result.scanned_bytes += bytes;
            result.sessions.merge(&stats);
            result.errors += errors;
            result.total_ops += ops;
        }
        result.wall = t0.elapsed();
    });
    result.store = db.store().stats().snapshot().delta(&store_before);
    result.heap_live_records = db.heap().live_record_count();
    result.heap_open_pages = db.heap().open_page_count();
    result.heap_queued_pages = db.heap().queued_page_count();
    result.heap_pages = db.heap().page_count();

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_db::{Db, DbConfig};

    #[test]
    fn kv_run_completes_with_scans_and_no_errors() {
        let db = Arc::new(Db::open(DbConfig::in_memory().with_k(8)).unwrap());
        let cfg = KvRunConfig {
            threads: 4,
            ops_per_thread: 1_500,
            key_space: 10_000,
            preload: 5_000,
            value_len: 32,
            scan_len: 50,
            mix: KvMix::BALANCED,
            ..KvRunConfig::default()
        };
        let r = run_kv(&db, &cfg);
        assert_eq!(r.total_ops, 6_000);
        assert_eq!(r.errors, 0);
        assert!(r.scanned_pairs > 0, "scans must stream pairs");
        assert!(r.scanned_bytes >= r.scanned_pairs * 32);
        assert!(r.ops_per_sec() > 0.0);
        db.verify().unwrap().assert_ok();
        // Index and heap stayed mutually consistent under the mixed load.
        let mut s = db.session();
        assert_eq!(db.heap().live_records().unwrap().len(), s.count().unwrap());
        // The heap metrics populated: the balanced mix deletes and re-puts,
        // so some inserts must have landed in freed slots.
        assert_eq!(r.heap_live_records, s.count().unwrap() as u64);
        assert!(r.heap_pages > 0);
        assert!(
            r.store.heap_slots_reused > 0,
            "delete/put churn must exercise slot reuse"
        );
    }

    #[test]
    fn value_payloads_identify_their_key() {
        let v = value_for(0xDEAD_BEEF, 32);
        assert_eq!(&v[..8], &0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(v.len(), 32);
        let tiny = value_for(7, 4);
        assert_eq!(tiny.len(), 4);
        assert_eq!(&tiny[..4], &7u64.to_le_bytes()[..4]);
    }
}
