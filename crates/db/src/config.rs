//! Database configuration.

use blink_durable::FsyncPolicy;
use sagiv_blink::TreeConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for [`crate::Db::open`].
///
/// The two constructors cover the two deployments: [`DbConfig::in_memory`]
/// (the paper's §2.2 volatile store) and [`DbConfig::durable`] (page file +
/// WAL in a directory, crash-recovered on open). Everything else has
/// production defaults and plain public fields for tuning. What follows
/// from the deployment is not configurable: a durable store always
/// checksums its page images, logs heap writes as delta records and runs
/// background write-back; an in-memory store does none of that.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Durable store directory; `None` for a purely in-memory database.
    pub dir: Option<PathBuf>,
    /// Page size for index nodes and heap pages (they share one store).
    pub page_size: usize,
    /// Index tuning (`k`, underflow policy, restart bounds, …). The
    /// `external_pages` hook is managed by `Db` — any value set here is
    /// overwritten.
    pub tree: TreeConfig,
    /// Commit durability policy (durable stores only).
    pub fsync: FsyncPolicy,
    /// WAL segment size before rotation (durable stores only).
    pub segment_bytes: u64,
    /// Buffer-pool frames over the shared store.
    pub pool_frames: usize,
    /// Record-heap insertion shards (independent open pages, one mutex
    /// each; thread identity picks the shard, so concurrent `put`s of new
    /// records never contend on one allocator). `0` means auto — one shard
    /// per available CPU, capped at 16.
    pub heap_shards: usize,
    /// Per-thread WAL staging (durable stores only): writers serialize
    /// their records into thread-local staging slots without taking the
    /// append mutex; the group-commit leader stitches staged records into
    /// LSN order and issues one contiguous segment write. Multi-record
    /// operations (a KV put touching heap + index pages) also defer the
    /// fsync-policy commit to the end of the operation — one commit-window
    /// wait per op instead of one per record. On by default; `false` is
    /// the single-mutex append baseline of the exp14 ablation.
    pub wal_staging: bool,
    /// Optimistic version-coupled reads on root/branch descent levels:
    /// nodes are copied out of their buffer-pool frames without the frame
    /// latch, validated by a per-frame seqlock, and revalidated before
    /// the descent acts on them (mismatch → restart). Leaf reads and all
    /// writes keep latches. On by default; `false` is the all-latched
    /// baseline of the exp14 ablation.
    pub optimistic_reads: bool,
    /// Record end-to-end per-op latency histograms feeding
    /// [`crate::Db::metrics`]. On by default (two relaxed atomic adds and
    /// two clock reads per op); `false` is the no-metrics baseline
    /// `exp16_contention` measures overhead against. Layer-level counters
    /// and contended-wait histograms are always on — they live in the
    /// store and cost nothing on uncontended paths.
    pub metrics: bool,
}

impl DbConfig {
    /// An in-memory database: no WAL, no files, `open` never recovers.
    pub fn in_memory() -> DbConfig {
        DbConfig {
            dir: None,
            page_size: 4096,
            tree: TreeConfig::default(),
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            pool_frames: 1024,
            heap_shards: 0,
            wal_staging: true,
            optimistic_reads: true,
            metrics: true,
        }
    }

    /// A durable database in `dir` (created on first open, recovered on
    /// every later one). Defaults: 4 KiB pages, fsync on every commit.
    pub fn durable(dir: impl Into<PathBuf>) -> DbConfig {
        DbConfig {
            dir: Some(dir.into()),
            ..DbConfig::in_memory()
        }
    }

    /// Same as [`DbConfig::durable`] with group commit in `window`.
    pub fn durable_group_commit(dir: impl Into<PathBuf>, window: Duration) -> DbConfig {
        DbConfig {
            fsync: FsyncPolicy::Group { window },
            ..DbConfig::durable(dir)
        }
    }

    /// Sets the index order `k` (every node holds `k..=2k` pairs).
    pub fn with_k(mut self, k: usize) -> DbConfig {
        self.tree.k = k;
        self
    }

    /// Sets the number of record-heap insertion shards (`0` = auto).
    pub fn with_heap_shards(mut self, shards: usize) -> DbConfig {
        self.heap_shards = shards;
        self
    }

    /// Enables or disables per-op latency recording (see
    /// [`DbConfig::metrics`]).
    pub fn with_metrics(mut self, on: bool) -> DbConfig {
        self.metrics = on;
        self
    }

    /// Enables or disables per-thread WAL staging (see
    /// [`DbConfig::wal_staging`]).
    pub fn with_wal_staging(mut self, on: bool) -> DbConfig {
        self.wal_staging = on;
        self
    }

    /// Enables or disables optimistic latch-free reads on upper index
    /// levels (see [`DbConfig::optimistic_reads`]).
    pub fn with_optimistic_reads(mut self, on: bool) -> DbConfig {
        self.optimistic_reads = on;
        self
    }
}
