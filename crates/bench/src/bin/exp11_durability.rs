//! E11 — Durability: commit throughput and recovery time vs. fsync policy.
//!
//! The paper's tree is disk-resident; this experiment measures what that
//! costs once writes are real. Part 1 drives concurrent inserts through
//! the durable store under each fsync policy and reports throughput,
//! commit latency and fsync counts — group commit should recover most of
//! `Always`'s throughput loss by amortizing each fsync over a batch of
//! records (watch the batch column). Part 2 measures recovery: reopening
//! after a clean shutdown (validate + verify only), after a checkpoint
//! (bounded replay) and after a mid-run crash (replay + Fig. 2 rebuild).

use blink_bench::{banner, scale};
use blink_durable::{create_tree, open_tree, DurableConfig, FsyncPolicy};
use blink_harness::Table;
use blink_pagestore::HistSnapshot;
use sagiv_blink::{TreeConfig, UnderflowPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-exp11-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dcfg(dir: &PathBuf, fsync: FsyncPolicy) -> DurableConfig {
    DurableConfig {
        fsync,
        ..DurableConfig::new(dir)
    }
}

fn policy_name(p: FsyncPolicy) -> String {
    match p {
        FsyncPolicy::Always => "always".into(),
        FsyncPolicy::Group { window } => format!("group {}us", window.as_micros()),
        FsyncPolicy::Never => "never (os)".into(),
    }
}

fn main() {
    banner(
        "E11: durable commits and crash recovery",
        "group commit amortizes fsync; recovery replays the log and rebuilds from the leaf chain",
    );

    // ------------------------------------------------------------------
    // Part 1: commit throughput per fsync policy.
    // ------------------------------------------------------------------
    let threads = 4usize;
    let per_thread = scale(1500);
    let policies = [
        FsyncPolicy::Always,
        FsyncPolicy::Group {
            window: Duration::from_micros(500),
        },
        FsyncPolicy::Never,
    ];
    let mut table = Table::new(vec![
        "fsync policy",
        "insert ops/s",
        "commit p50",
        "commit p99",
        "wal records",
        "fsyncs",
        "records/fsync batch",
        "pool hit rate",
        "evict/wb/pins",
    ]);
    for policy in policies {
        let dir = tmpdir("tput");
        let (store, tree) = create_tree(dcfg(&dir, policy), TreeConfig::with_k(16)).unwrap();
        let before = store.store().stats().snapshot();
        let t0 = Instant::now();
        let hist = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let tree = Arc::clone(&tree);
                handles.push(scope.spawn(move || {
                    let mut s = tree.session();
                    let mut h = HistSnapshot::new();
                    for i in 0..per_thread {
                        let key = (t as u64) * 10_000_000 + i;
                        let op0 = Instant::now();
                        tree.insert(&mut s, key, i).unwrap();
                        h.record(op0.elapsed().as_nanos() as u64);
                    }
                    h
                }));
            }
            let mut merged = HistSnapshot::new();
            for h in handles {
                merged.merge(&h.join().unwrap());
            }
            merged
        });
        let wall = t0.elapsed();
        let d = store.store().stats().snapshot().delta(&before);
        let total_ops = threads as u64 * per_thread;
        let batch = if d.wal_group_commits > 0 {
            d.wal_group_commit_records as f64 / d.wal_group_commits as f64
        } else {
            0.0
        };
        table.row(vec![
            policy_name(policy),
            format!("{:.0}", total_ops as f64 / wall.as_secs_f64()),
            format!("{:.0}us", hist.percentile(50.0) as f64 / 1000.0),
            format!("{:.0}us", hist.percentile(99.0) as f64 / 1000.0),
            format!("{}", d.wal_records),
            format!("{}", d.wal_fsyncs),
            format!("{batch:.1}"),
            format!("{:.1}%", d.hit_rate() * 100.0),
            format!("{}/{}/{}", d.frames_evicted, d.dirty_writebacks, d.pins),
        ]);
        drop(tree);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print!("{table}");
    println!();

    // ------------------------------------------------------------------
    // Part 2: recovery time by shutdown kind (policy: never — replay cost
    // is what varies; the fsync policy only changes the durable horizon).
    // ------------------------------------------------------------------
    let ops = scale(20_000);
    let keys = (ops / 5).max(64);
    let mut rec = Table::new(vec![
        "shutdown",
        "records replayed",
        "repair",
        "leaves",
        "freed pages",
        "reopen time",
    ]);

    let workload = |tree: &Arc<sagiv_blink::BLinkTree>, until: u64| -> u64 {
        let mut s = tree.session();
        let mut done = 0;
        for i in 0..until {
            let key = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) % keys;
            let r = if i % 4 == 3 && i > keys {
                tree.delete(&mut s, key).map(|_| ())
            } else {
                tree.insert(&mut s, key, i).map(|_| ())
            };
            if r.is_err() {
                break;
            }
            done += 1;
        }
        done
    };
    let tcfg = || TreeConfig::with_k_and_policy(16, UnderflowPolicy::Inline);

    for kind in ["clean", "checkpoint", "crash 50%", "crash 95%"] {
        let dir = tmpdir("rec");
        let total_records = {
            let (store, tree) = create_tree(dcfg(&dir, FsyncPolicy::Never), tcfg()).unwrap();
            match kind {
                "clean" | "checkpoint" => {
                    workload(&tree, ops);
                    // A clean shutdown releases deferred pages before the
                    // deferred free list (in-memory) is lost.
                    tree.reclaim().unwrap();
                    if kind == "checkpoint" {
                        store.checkpoint().unwrap();
                    }
                    store.sync().unwrap();
                }
                _ => {
                    // Count records in a dry run elsewhere? Cheaper: run the
                    // whole workload, note the count, then crash a fresh run.
                    workload(&tree, ops);
                }
            }
            store.store().stats().snapshot().wal_records
        };
        if let Some(pct) = kind.strip_prefix("crash ") {
            let pct: u64 = pct.trim_end_matches('%').parse().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            let (store, tree) = create_tree(dcfg(&dir, FsyncPolicy::Never), tcfg()).unwrap();
            store
                .fault()
                .crash_after_wal_records(total_records * pct / 100);
            workload(&tree, ops);
            assert!(store.fault().tripped());
        }

        let t0 = Instant::now();
        let (store, tree, stats) = open_tree(dcfg(&dir, FsyncPolicy::Never), tcfg()).unwrap();
        let reopen = t0.elapsed();
        rec.row(vec![
            kind.to_string(),
            format!("{}", stats.wal_records_replayed),
            if stats.repaired {
                format!("rebuilt {} index nodes", stats.rebuilt_internal_nodes)
            } else {
                "none".into()
            },
            format!("{}", stats.leaves),
            format!("{}", stats.freed_pages),
            format!("{:.1}ms", reopen.as_secs_f64() * 1000.0),
        ]);
        tree.verify(false).unwrap().assert_ok();
        drop(tree);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print!("{rec}");
    println!();
    println!("recovery includes WAL replay, prime validation, structural verify, and (after a");
    println!("crash) the Fig. 2 rebuild of every index level from the leaf chain plus GC of");
    println!("orphaned pages. 'records replayed' is bounded by the last checkpoint.");
    println!();
    println!("'pool hit rate' and 'evict/wb/pins' are the buffer-pool gauges: writes are");
    println!("write-back (the WAL record is the commit point), so the page file only sees");
    println!("dirty-frame write-backs ('wb') on eviction, sync and checkpoint.");
}
