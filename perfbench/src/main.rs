//! Benchmark of the `blink-db` facade.
//!
//! ```text
//! perfbench --workload <hot-get|cold-scan|durable-churn> --seed <n>
//!           --seconds <n> --trace <0|1> --dir <path> [--corrupt-expected]
//! ```
//!
//! Two closed-loop clients, each with its own `DbSession`, run the
//! workload's op mix for `--seconds` after a warm-up, and every result is
//! checked against the clients' models. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced slices and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A correctness
//! violation, an op that returns an error among them, exits with status 1.
//! The store lives in `<dir>/<workload>-<pid>`; the caller removes it.

mod model;
mod trace;
mod workload;

use blink_db::{Db, DbConfig, MetricsSnapshot};
use blink_durable::FsyncPolicy;
use blink_pagestore::HistSnapshot;
use model::{owner, Model, CLIENTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Span;
use workload::{Client, Op, Phase, Spec, OPS, STOP, TRACED, UNTRACED};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Commit policy of the durable workload. Commits do not fsync, so a
/// run follows the program rather than the shared disk (see README.md).
const DURABLE_FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// The main thread checkpoints the durable store this often.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
/// Ops per client after the last checkpoint and before the un-synced drop,
/// so every reopen replays about the same amount of log.
const TAIL_OPS: u64 = 2_000;
/// Measurement window of a `--trace 0` run: each rate and latency
/// percentile is the median over the run's windows, so a stall of the
/// host that covers less than half the run does not move the result.
/// One checkpoint interval, so a durable window holds one checkpoint.
const WINDOW: Duration = CHECKPOINT_EVERY;
/// Length of one untraced or traced slice of a `--trace 1` run.
const TRACE_SLICE: Duration = Duration::from_millis(250);

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    corrupt_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace, mut dir) = (None, None, None, None, None);
    let mut corrupt_expected = false;
    while let Some(flag) = it.next() {
        if flag == "--corrupt-expected" {
            corrupt_expected = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        dir: dir.ok_or("--dir is required")?,
        corrupt_expected,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let store_dir = args
        .dir
        .join(format!("{}-{}", args.spec.name, std::process::id()));
    match run(&args, &store_dir) {
        Ok(out) => {
            print!("{}", out.report);
            println!("{}", out.json);
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.spec.name);
            std::process::exit(1);
        }
    }
}

struct Outcome {
    correct: bool,
    report: String,
    json: String,
}

fn db_config(spec: &Spec, dir: &Path) -> DbConfig {
    let mut cfg = if spec.durable {
        DbConfig::durable(dir)
    } else {
        DbConfig::in_memory()
    };
    cfg.fsync = DURABLE_FSYNC;
    cfg.pool_frames = spec.pool_frames;
    cfg
}

fn err(context: &str) -> impl Fn(sagiv_blink::TreeError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Opens a fresh store and loads the workload's initial data with one
/// thread per client over halves of the key space. A durable store is then
/// checkpointed, so the timed phase starts from a checkpoint.
fn open_and_preload(spec: &Spec, seed: u64, dir: &Path) -> Result<Db, String> {
    let db = Db::open(db_config(spec, dir)).map_err(err("open"))?;
    let half = spec.key_space / 2;
    std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..2u64)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    let mut s = db.session();
                    let mut value = vec![0; spec.value_len];
                    for key in (t * half..(t + 1) * half).filter(|&k| spec.preloaded(seed, k)) {
                        model::encode(key, 1, &mut value);
                        s.put(key, &value).map_err(err("preload put"))?;
                    }
                    Ok::<(), String>(())
                })
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|h| h.join().expect("preload thread panicked"))
    })?;
    if spec.durable {
        db.checkpoint().map_err(err("preload checkpoint"))?;
    }
    Ok(db)
}

/// Store and tree counters of a set of measurement windows, summed.
#[derive(Default)]
struct Counters {
    counters: BTreeMap<&'static str, u64>,
    restarts: u64,
    link_follows: u64,
    splits: u64,
    fsync: Option<HistSnapshot>,
    scan_hop: Option<HistSnapshot>,
    elapsed: Duration,
}

impl Counters {
    fn add(&mut self, d: &MetricsSnapshot, elapsed: Duration) {
        d.store.for_each_counter(|name, v| {
            *self.counters.entry(name).or_default() += v;
        });
        self.restarts += d.tree.restarts;
        self.link_follows += d.tree.link_follows;
        self.splits += d.tree.splits;
        for (sum, h) in [
            (&mut self.fsync, &d.store.fsync_hist),
            (&mut self.scan_hop, &d.scan_hop),
        ] {
            match sum {
                Some(s) => s.merge(h),
                None => *sum = Some(h.clone()),
            }
        }
        self.elapsed += elapsed;
    }

    fn c(&self, name: &str) -> f64 {
        *self.counters.get(name).unwrap_or(&0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank) of `samples`, in microseconds.
fn percentile_us(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize - 1;
    let (_, v, _) = samples.select_nth_unstable(rank);
    *v as f64 / 1000.0
}

/// Untraced latency samples of `op` in window `w`, both clients.
fn latencies(clients: &[Client], w: usize, op: Op) -> Vec<u32> {
    clients
        .iter()
        .filter_map(|c| c.tally.windows.get(w))
        .flat_map(|t| t.lat[op as usize].iter().copied())
        .collect()
}

/// Full read-back: every key in the key space against its owner's model.
/// Returns the number of live keys.
fn check_all(db: &Db, spec: &Spec, models: &[&Model]) -> Result<u64, String> {
    let mut s = db.session();
    let mut live = 0;
    for key in 0..spec.key_space {
        let v = s.get(key).map_err(err("read-back"))?;
        live += v.is_some() as u64;
        models[owner(key)].check(key, v.as_deref(), spec.value_len)?;
    }
    Ok(live)
}

/// `Db::verify`, the store's fault counters, and the full read-back.
fn check_quiesced(db: &Db, spec: &Spec, models: &[&Model]) -> Result<u64, String> {
    let rep = db.verify().map_err(err("verify"))?;
    if !rep.errors.is_empty() {
        return Err(format!("verify: {}", rep.errors.join("; ")));
    }
    let m = db.metrics().store;
    if m.checksum_failures != 0 || m.io_giveups != 0 {
        return Err(format!(
            "{} checksum failures, {} I/O give-ups",
            m.checksum_failures, m.io_giveups
        ));
    }
    let live = check_all(db, spec, models)?;
    if rep.leaf_pairs as u64 != live {
        return Err(format!(
            "index holds {} pairs, {live} keys read back",
            rep.leaf_pairs
        ));
    }
    Ok(live)
}

/// Drives one run: set-up, warm-up, the timed phase (with checkpoints and,
/// traced, slice flips), the checks and, durable, the drop and reopen.
fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let spec = &args.spec;
    let mut setups = Vec::new();
    let mut db = None;
    for _ in 0..SETUP_REPEATS {
        drop(db.take());
        let _ = std::fs::remove_dir_all(dir);
        let t0 = Instant::now();
        db = Some(open_and_preload(spec, args.seed, dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one set-up");
    let setup_s = median(setups);

    let mut clients: Vec<Client> = (0..CLIENTS as usize)
        .map(|id| Client::new(id, spec, args.seed))
        .collect();

    let phase = Phase::default();
    let warmup = Duration::from_secs_f64((args.seconds / 5.0).clamp(0.2, 2.0));
    let window_len =
        if args.trace { TRACE_SLICE } else { WINDOW }.min(Duration::from_secs_f64(args.seconds));
    let n_windows = (args.seconds / window_len.as_secs_f64()).round() as usize;
    let mode_of = |w: usize| {
        if args.trace && w % 2 == 1 {
            TRACED
        } else {
            UNTRACED
        }
    };
    // Store counters summed per mode, and each window's measured length.
    let mut by_mode = [Counters::default(), Counters::default()];
    let mut window_secs = Vec::with_capacity(n_windows);
    let mut checkpoint_ms = Vec::new();
    let violation = std::thread::scope(|scope| -> Result<Option<String>, String> {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (db, phase) = (&db, &phase);
                scope.spawn(move || c.run(db, phase, None))
            })
            .collect();
        // Windows and checkpoints run on one fixed cadence from the end
        // of the warm-up: each durable window starts with a checkpoint.
        let start = Instant::now();
        let timed_start = start + warmup;
        let mut next_checkpoint = start + CHECKPOINT_EVERY;
        // The window in progress: its start and the metrics at its start.
        let mut current: Option<(Instant, MetricsSnapshot)> = None;
        let mut drive = || -> Result<(), String> {
            loop {
                let now = Instant::now();
                if phase.get().0 == STOP {
                    return Ok(()); // a client found a violation
                }
                let w = window_secs.len();
                let due = match &current {
                    None => timed_start,
                    Some(_) => timed_start + window_len * (w as u32 + 1),
                };
                if now >= due {
                    let m = db.metrics();
                    if let Some((t, m0)) = current.take() {
                        by_mode[mode_of(w) as usize - 1].add(&m.delta(&m0), now - t);
                        window_secs.push((now - t).as_secs_f64());
                    }
                    let w = window_secs.len();
                    if w == n_windows {
                        return Ok(());
                    }
                    phase.set(mode_of(w), w);
                    current = Some((now, m));
                    if w == 0 {
                        next_checkpoint = now;
                    }
                }
                if spec.durable && now >= next_checkpoint {
                    let t0 = Instant::now();
                    db.checkpoint().map_err(err("checkpoint"))?;
                    if current.is_some() {
                        checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    while next_checkpoint <= Instant::now() {
                        next_checkpoint += CHECKPOINT_EVERY;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let driven = drive();
        phase.stop();
        let mut violation = None;
        for h in handles {
            if let Err(e) = h.join().expect("client thread panicked") {
                violation.get_or_insert(e);
            }
        }
        driven.map(|()| violation)
    })?;
    if let Some(v) = violation {
        return Ok(violation_outcome(&clients, v));
    }

    // Durable: a last checkpoint, then a fixed number of ops the next
    // open must replay from the log.
    if spec.durable {
        db.checkpoint().map_err(err("checkpoint"))?;
        let tail = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let (db, phase) = (&db, &phase);
                    scope.spawn(move || c.run(db, phase, Some(TAIL_OPS)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Result<Vec<()>, String>>()
        });
        if let Err(v) = tail {
            return Ok(violation_outcome(&clients, v));
        }
    }

    if args.corrupt_expected {
        let key = clients[0].model.corrupt_one();
        eprintln!("perfbench: self-test: expected value of key {key:?} made wrong");
    }
    let models: Vec<&Model> = clients.iter().map(|c| &c.model).collect();
    let live = match check_quiesced(&db, spec, &models) {
        Ok(live) => live,
        Err(v) => return Ok(violation_outcome(&clients, v)),
    };
    let live_bytes = live * (8 + spec.value_len as u64);
    let stored_bytes = (db.store().live_pages() * db.store().page_size()) as u64;

    let mut reopen_s = 0.0;
    let mut replayed = 0;
    if spec.durable {
        drop(db);
        let t0 = Instant::now();
        let db = Db::open(db_config(spec, dir)).map_err(err("reopen after un-synced drop"))?;
        reopen_s = t0.elapsed().as_secs_f64();
        replayed = db.recovery().map_or(0, |r| r.wal_records_replayed);
        if let Err(v) = check_quiesced(&db, spec, &models) {
            return Ok(violation_outcome(&clients, format!("after reopen: {v}")));
        }
    }

    let attempted: u64 = clients.iter().map(|c| c.tally.attempted).sum();
    let failed: u64 = clients.iter().map(|c| c.tally.failed).sum();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "config {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"clients\": {CLIENTS}, \"nproc\": {}, \"fsync\": \"{}\", \"pool_frames\": {}, \
         \"key_space\": {}, \"value_len\": {}, \"mix_get_put_delete_scan_permille\": {:?}}}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if spec.durable {
            format!("{DURABLE_FSYNC:?}")
        } else {
            "none (in-memory)".into()
        },
        spec.pool_frames,
        spec.key_space,
        spec.value_len,
        spec.mix,
    );
    // Client tallies by window: `sum(w, f)` adds `f` over both clients.
    let sum = |w: usize, f: &dyn Fn(&workload::WindowTally) -> u64| -> u64 {
        clients
            .iter()
            .filter_map(|c| c.tally.windows.get(w))
            .map(f)
            .sum()
    };
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mode_sum = |mode: u8, f: &dyn Fn(&workload::WindowTally) -> u64| -> u64 {
            (0..window_secs.len())
                .filter(|&w| mode_of(w) == mode)
                .map(|w| sum(w, f))
                .sum()
        };
        let untraced_ops = mode_sum(UNTRACED, &|t| t.ops);
        let traced_ops = mode_sum(TRACED, &|t| t.ops);
        let mut ledger = trace::Ledger::default();
        for c in &clients {
            ledger.merge(&c.tally.ledger);
        }
        let [untraced, traced] = &by_mode;
        let _ = writeln!(report, "ledger (share of traced op wall time):");
        for (name, span) in [
            ("search", Span::Search),
            ("upsert", Span::Upsert),
            ("tree-delete", Span::TreeDelete),
            ("scan-next", Span::ScanNext),
            ("heap-read", Span::HeapRead),
            ("heap-write", Span::HeapWrite),
            ("heap-free", Span::HeapFree),
            ("throttle", Span::Throttle),
            ("commit", Span::Commit),
        ] {
            let _ = writeln!(
                report,
                "  {name:<12} {:6.2}%  mean {:>10.0} ns  n={}",
                ledger.share_pct(span),
                ledger.mean_ns(span),
                ledger.count(span)
            );
        }
        let durable = DurableFigures {
            user_bytes: mode_sum(TRACED, &|t| t.user_bytes) as f64,
            checkpoint_ms,
            replayed,
            reopen_s,
        };
        per_layer_metrics(
            traced,
            &ledger,
            traced_ops as f64,
            ratio(traced_ops as f64, traced.elapsed.as_secs_f64()),
            ratio(untraced_ops as f64, untraced.elapsed.as_secs_f64()),
            durable,
        )
    } else {
        let per_window = |f: &dyn Fn(&workload::WindowTally) -> u64| -> Vec<f64> {
            window_secs
                .iter()
                .enumerate()
                .map(|(w, secs)| sum(w, f) as f64 / secs)
                .collect()
        };
        let ops = per_window(&|t| t.ops);
        let _ = writeln!(report, "ops/s by window: {:.0?}", ops);
        let mut out = vec![("setup_s", setup_s, "s"), ("ops_per_s", median(ops), "1/s")];
        for op in OPS {
            let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
            let mut n = 0;
            for w in 0..window_secs.len() {
                let mut samples = latencies(&clients, w, op);
                if !samples.is_empty() {
                    n += samples.len();
                    p50s.push(percentile_us(&mut samples, 50.0));
                    p99s.push(percentile_us(&mut samples, 99.0));
                }
            }
            let _ = writeln!(
                report,
                "{} latency samples: {n}; p50, p99 by window (us): {:.1?}, {:.1?}",
                op.name(),
                p50s,
                p99s
            );
            let [p50, p99] = match op {
                Op::Get => ["get_p50_us", "get_p99_us"],
                Op::Put => ["put_p50_us", "put_p99_us"],
                Op::Delete => ["delete_p50_us", "delete_p99_us"],
                Op::Scan => ["scan_p50_us", "scan_p99_us"],
            };
            out.push((p50, median(p50s), "us"));
            out.push((p99, median(p99s), "us"));
        }
        out.push((
            "scan_pairs_per_s",
            median(per_window(&|t| t.scan_pairs)),
            "1/s",
        ));
        out.push((
            "stored_bytes_per_live_byte",
            ratio(stored_bytes as f64, live_bytes as f64),
            "B/B",
        ));
        out
    };
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = writeln!(report, "metric {name} = {value} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    Ok(Outcome {
        correct: true,
        report,
        json,
    })
}

/// What only a durable run measures (zero on an in-memory one): WAL bytes
/// are divided by the key and value bytes written, and the checkpoint and
/// reopen figures come from the main thread.
struct DurableFigures {
    user_bytes: f64,
    checkpoint_ms: Vec<f64>,
    replayed: u64,
    reopen_s: f64,
}

/// Per-layer metrics of the traced slices. Every workload reports all of
/// them; the WAL, flusher and recovery ones read 0 on an in-memory store,
/// which does not run those layers.
fn per_layer_metrics(
    w: &Counters,
    ledger: &trace::Ledger,
    ops: f64,
    traced_rate: f64,
    untraced_rate: f64,
    d: DurableFigures,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_op = |name: &str| ratio(w.c(name), ops);
    let per_kop = |v: u64| ratio(v as f64 * 1e3, ops);
    let hist_us =
        |h: &Option<HistSnapshot>, p: f64| h.as_ref().map_or(0.0, |h| h.percentile(p) as f64 / 1e3);
    vec![
        ("core.search_ns", ledger.mean_ns(Span::Search), "ns"),
        ("core.upsert_ns", ledger.mean_ns(Span::Upsert), "ns"),
        ("core.delete_ns", ledger.mean_ns(Span::TreeDelete), "ns"),
        ("core.scan_next_ns", ledger.mean_ns(Span::ScanNext), "ns"),
        (
            "core.scan_hop_ns",
            w.scan_hop.as_ref().map_or(0.0, |h| h.mean()),
            "ns",
        ),
        (
            "core.optimistic_fallback_ratio",
            ratio(
                w.c("optimistic_read_fallbacks"),
                w.c("optimistic_reads") + w.c("optimistic_read_fallbacks"),
            ),
            "ratio",
        ),
        ("core.restarts_per_kop", per_kop(w.restarts), "1/kop"),
        (
            "core.link_follows_per_kop",
            per_kop(w.link_follows),
            "1/kop",
        ),
        ("core.splits_per_kop", per_kop(w.splits), "1/kop"),
        (
            "pool.hit_rate",
            ratio(w.c("cache_hits"), w.c("cache_hits") + w.c("cache_misses")),
            "ratio",
        ),
        ("pool.evictions_per_op", per_op("frames_evicted"), "1/op"),
        ("pool.wait_ns_per_op", per_op("pool_wait_ns"), "ns/op"),
        (
            "pool.latch_wait_ns_per_op",
            per_op("latch_wait_ns"),
            "ns/op",
        ),
        (
            "pool.paper_lock_wait_ns_per_op",
            per_op("lock_wait_ns"),
            "ns/op",
        ),
        ("pool.writebacks_per_op", per_op("dirty_writebacks"), "1/op"),
        ("pool.throttle_ns", ledger.mean_ns(Span::Throttle), "ns"),
        ("heap.read_ns", ledger.mean_ns(Span::HeapRead), "ns"),
        ("heap.write_ns", ledger.mean_ns(Span::HeapWrite), "ns"),
        ("heap.free_ns", ledger.mean_ns(Span::HeapFree), "ns"),
        (
            "heap.shard_wait_ns_per_op",
            per_op("heap_shard_wait_ns"),
            "ns/op",
        ),
        (
            "heap.slot_reuse_ratio",
            ratio(
                w.c("heap_slots_reused"),
                ledger.count(Span::HeapWrite) as f64,
            ),
            "ratio",
        ),
        ("bench.unattributed_pct", ledger.unattributed_pct(), "%"),
        (
            "trace_overhead_pct",
            100.0 * (1.0 - ratio(traced_rate, untraced_rate)),
            "%",
        ),
        ("wal.commit_ns", ledger.mean_ns(Span::Commit), "ns"),
        ("wal.fsync_p50_us", hist_us(&w.fsync, 50.0), "us"),
        ("wal.fsync_p99_us", hist_us(&w.fsync, 99.0), "us"),
        (
            "wal.records_per_fsync",
            ratio(w.c("wal_records"), w.c("wal_fsyncs")),
            "count",
        ),
        (
            "wal.append_wait_ns_per_op",
            per_op("wal_append_wait_ns"),
            "ns/op",
        ),
        ("wal.bytes_per_op", per_op("wal_bytes"), "B/op"),
        (
            "wal.bytes_per_user_byte",
            ratio(w.c("wal_bytes"), d.user_bytes),
            "B/B",
        ),
        (
            "wal.delta_ratio",
            ratio(
                w.c("wal_put_deltas"),
                w.c("wal_put_deltas") + w.c("wal_put_full_images"),
            ),
            "ratio",
        ),
        (
            "flusher.pages_per_op",
            per_op("flusher_pages_written"),
            "1/op",
        ),
        (
            "durable.checkpoint_ms",
            ratio(d.checkpoint_ms.iter().sum(), d.checkpoint_ms.len() as f64),
            "ms",
        ),
        ("durable.replayed_records", d.replayed as f64, "count"),
        ("durable.reopen_s", d.reopen_s, "s"),
    ]
}

/// The result of a run that broke a correctness check: reported, and the
/// process exits non-zero.
fn violation_outcome(clients: &[Client], v: String) -> Outcome {
    eprintln!("perfbench: correctness violation: {v}");
    let attempted: u64 = clients.iter().map(|c| c.tally.attempted).sum();
    let failed: u64 = clients.iter().map(|c| c.tally.failed).sum();
    Outcome {
        correct: false,
        report: format!("violation {v}\n"),
        json: format!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
            attempted.max(1)
        ),
    }
}
