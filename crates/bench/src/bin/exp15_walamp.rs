//! E15 — WAL write amplification: delta records vs full page images.
//!
//! Until PR 5 every durable `put` logged a full page image, so a 64-byte
//! KV overwrite cost a whole page of WAL traffic (and that page rode
//! inside the group-commit fsync payload). PR 5 logs tracked heap writes
//! as coalesced byte-range **delta records** gated by per-page LSNs; this
//! experiment measures what that buys, value size × fsync policy:
//!
//! * **WAL bytes/op** — the amplification figure. An in-place 64-byte
//!   overwrite logs the record bytes + one slot-directory entry + a few
//!   header words (tens of bytes) instead of a 4 KiB image: the small-
//!   value rows must show a ≥ 4x reduction against the full-image record
//!   size (asserted — the CI regression guard for the delta path).
//! * **put ops/s** — the log work per commit shrinks, and under `Group`
//!   fsync the smaller payload also shrinks what each fsync has to push
//!   to the platter.
//! * **records split** — how many puts logged as deltas vs full images
//!   (first-touch re-bases after open/checkpoint, oversized fallbacks).
//!
//! Emits `BENCH_walamp.json` for trajectory tracking.

use blink_bench::{banner, quick};
use blink_db::{Db, DbConfig};
use blink_harness::kv::{run_kv, KvMix, KvRunConfig};
use blink_harness::Table;
use blink_workload::KeyDist;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use blink_durable::FsyncPolicy;

/// WAL bytes of one full-image put record at 4 KiB pages: the page plus
/// the 16-byte record header, op byte and 4-byte page id. Deterministic —
/// every `full-image` row of BENCH_walamp.json, the last run of the
/// full-image mode before it was retired, reads exactly 4117.0 B/op.
const FULL_IMAGE_RECORD_BYTES: f64 = 4096.0 + 21.0;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-exp15-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policy_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::Always => "always",
        FsyncPolicy::Group { .. } => "group 500us",
        FsyncPolicy::Never => "never (os)",
    }
}

struct Record {
    value_len: usize,
    fsync: &'static str,
    mode: &'static str,
    ops_per_sec: f64,
    wal_bytes_per_op: f64,
    deltas: u64,
    full_images: u64,
    rebases: u64,
    fsyncs: u64,
}

fn run_one(value_len: usize, fsync: FsyncPolicy) -> Record {
    let dir = tmpdir(&format!(
        "{value_len}-{}",
        policy_name(fsync).replace(' ', "")
    ));
    let mut dbc = DbConfig::durable(&dir).with_k(16);
    assert_eq!(
        dbc.page_size, 4096,
        "FULL_IMAGE_RECORD_BYTES assumes 4 KiB pages"
    );
    dbc.fsync = fsync;
    let db = Arc::new(Db::open(dbc).unwrap());
    let keys: u64 = if quick() { 1_000 } else { 4_000 };
    let cfg = KvRunConfig {
        threads: 2,
        ops_per_thread: if quick() { 1_500 } else { 6_000 },
        duration: None,
        key_space: keys,
        dist: KeyDist::Uniform,
        mix: KvMix::PUT_ONLY,
        value_len,
        scan_len: 1,
        preload: keys, // every measured put overwrites an existing record
        seed: 15,
    };
    let r = run_kv(&db, &cfg);
    assert_eq!(r.errors, 0, "kv workload must not error");
    db.verify().unwrap().assert_ok();
    let rec = Record {
        value_len,
        fsync: policy_name(fsync),
        mode: "delta",
        ops_per_sec: r.ops_per_sec(),
        wal_bytes_per_op: r.wal_bytes_per_op(),
        deltas: r.store.wal_put_deltas,
        full_images: r.store.wal_put_full_images,
        rebases: r.store.wal_delta_fallback_first_touch,
        fsyncs: r.store.wal_fsyncs,
    };
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    rec
}

fn main() {
    banner(
        "E15: WAL write amplification — delta records vs full page images",
        "a 64-byte overwrite should log tens of bytes, not a page",
    );
    let policies = [
        FsyncPolicy::Never,
        FsyncPolicy::Group {
            window: Duration::from_micros(500),
        },
    ];
    let value_lens: &[usize] = if quick() {
        &[64, 1024]
    } else {
        &[16, 64, 256, 1024]
    };

    let mut records: Vec<Record> = Vec::new();
    let mut table = Table::new(vec![
        "value",
        "fsync",
        "mode",
        "put ops/s",
        "wal bytes/op",
        "vs full image",
        "deltas/full",
        "fsyncs",
    ]);
    for &policy in &policies {
        for &vlen in value_lens {
            let delta = run_one(vlen, policy);
            let reduction = FULL_IMAGE_RECORD_BYTES / delta.wal_bytes_per_op.max(1.0);
            table.row(vec![
                format!("{}B", delta.value_len),
                delta.fsync.to_string(),
                delta.mode.to_string(),
                format!("{:.0}", delta.ops_per_sec),
                format!("{:.0}", delta.wal_bytes_per_op),
                format!("{reduction:.1}x"),
                format!("{}/{}", delta.deltas, delta.full_images),
                delta.fsyncs.to_string(),
            ]);
            assert!(
                delta.deltas > 0,
                "the delta path must actually log delta records"
            );
            assert!(
                delta.wal_bytes_per_op < FULL_IMAGE_RECORD_BYTES,
                "deltas must never amplify more than full images \
                 ({}B/{}: {:.0} vs {FULL_IMAGE_RECORD_BYTES} bytes/op)",
                vlen,
                delta.fsync,
                delta.wal_bytes_per_op,
            );
            if vlen <= 64 {
                // The acceptance bar: small-value overwrites must cut WAL
                // traffic at least 4x against a full-image record.
                assert!(
                    reduction >= 4.0,
                    "small-value delta reduction regressed: {reduction:.1}x at {vlen}B/{}",
                    delta.fsync
                );
            }
            records.push(delta);
        }
    }
    print!("{table}");
    println!();

    // ------------------------------------------------------------------
    // Perf record for the trajectory file.
    // ------------------------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"walamp\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"value_len\": {}, \"fsync\": \"{}\", \"mode\": \"{}\", \
             \"ops_per_sec\": {:.1}, \"wal_bytes_per_op\": {:.1}, \"deltas\": {}, \
             \"full_images\": {}, \"rebases\": {}, \"fsyncs\": {}}}{}\n",
            r.value_len,
            r.fsync,
            r.mode,
            r.ops_per_sec,
            r.wal_bytes_per_op,
            r.deltas,
            r.full_images,
            r.rebases,
            r.fsyncs,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_walamp.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    println!();
    println!("the delta rows should sit 1-2 orders of magnitude under a full-image record");
    println!("({FULL_IMAGE_RECORD_BYTES} B) for small values (the slot write is constant-size,");
    println!("the image is a page), and converge toward ~4x as the value approaches the");
    println!("page — at which point the size gate flips the put back to a full image.");
}
