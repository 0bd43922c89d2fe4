//! The three workloads and the closed-loop client that runs them.

use crate::model::{decode, encode, owner, Model, Rng, CLIENTS};
use crate::trace::{Ledger, Traced};
use blink_db::{Db, DbSession, PutOutcome};
use blink_workload::{KeyDist, KeyPicker};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// What a client does with its next op; set by the main thread.
pub const WARMUP: u8 = 0;
pub const UNTRACED: u8 = 1;
pub const TRACED: u8 = 2;
pub const STOP: u8 = 3;

/// The main thread's signal to the clients: a mode, and the index of the
/// measurement window the timed phase is in.
#[derive(Debug, Default)]
pub struct Phase(AtomicU32);

impl Phase {
    pub fn set(&self, mode: u8, window: usize) {
        self.0
            .store(mode as u32 | (window as u32) << 8, Ordering::Relaxed);
    }

    pub fn get(&self) -> (u8, usize) {
        let v = self.0.load(Ordering::Relaxed);
        (v as u8, (v >> 8) as usize)
    }

    pub fn stop(&self) {
        self.set(STOP, 0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get = 0,
    Put = 1,
    Delete = 2,
    Scan = 3,
}

pub const OPS: [Op; 4] = [Op::Get, Op::Put, Op::Delete, Op::Scan];

impl Op {
    pub fn name(self) -> &'static str {
        ["get", "put", "delete", "scan"][self as usize]
    }
}

/// One workload: store, data set and op mix.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub durable: bool,
    pub pool_frames: usize,
    pub key_space: u64,
    /// Share `num / den` of the key space loaded before the run.
    pub preload: (u64, u64),
    pub value_len: usize,
    pub dist: KeyDist,
    /// Per-mille shares of get, put, delete and scan.
    pub mix: [u64; 4],
    /// Keys per scan range.
    pub scan_len: u64,
}

impl Spec {
    /// The workloads by name. Each carries a small share of every op type
    /// so that every end-to-end metric is measured on every workload.
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            // Point reads of a cached, skewed data set: optimistic branch
            // descent, the leaf latch and `RecordHeap::read_with`, with
            // puts contending on hot leaves. No WAL and no eviction.
            "hot-get" => Spec {
                name: "hot-get",
                durable: false,
                pool_frames: 16_384,
                key_space: 100_000,
                preload: (1, 1),
                value_len: 64,
                dist: KeyDist::Zipf { theta: 0.99 },
                mix: [880, 100, 10, 10],
                scan_len: 16,
            },
            // Range scans over a data set ~11x the 4 MiB pool: cursor leaf
            // hops, heap joins and CLOCK eviction. No WAL.
            "cold-scan" => Spec {
                name: "cold-scan",
                durable: false,
                pool_frames: 1024,
                key_space: 200_000,
                preload: (1, 1),
                value_len: 128,
                dist: KeyDist::Uniform,
                mix: [270, 100, 30, 600],
                scan_len: 100,
            },
            // The durable write path under churn: heap slot reuse, WAL
            // staging, delta records, segment rotation, fuzzy checkpoints
            // (which write the dirty pages back) and recovery. Commits do
            // not fsync, and the pool's flusher watermark (an eighth of
            // 32768 frames) sits above the ~2k pages of data, so there are
            // no page-file reads and write-back runs at checkpoints only:
            // the run follows the program more than the disk.
            "durable-churn" => Spec {
                name: "durable-churn",
                durable: true,
                pool_frames: 32_768,
                key_space: 100_000,
                preload: (1, 2),
                value_len: 64,
                dist: KeyDist::Uniform,
                mix: [370, 400, 200, 30],
                scan_len: 16,
            },
            _ => return None,
        };
        debug_assert_eq!(spec.mix.iter().sum::<u64>(), 1000);
        debug_assert_eq!(spec.key_space % CLIENTS, 0);
        Some(spec)
    }

    pub fn preloaded(&self, seed: u64, key: u64) -> bool {
        crate::model::preloaded(seed, key, self.preload.0, self.preload.1)
    }
}

/// What one client did in one measurement window.
#[derive(Debug, Default)]
pub struct WindowTally {
    /// Untraced op latencies in ns, per op type.
    pub lat: [Vec<u32>; 4],
    pub ops: u64,
    pub scan_pairs: u64,
    /// Key and value bytes written by puts and deletes.
    pub user_bytes: u64,
}

/// Tallies of one client.
#[derive(Debug, Default)]
pub struct Tally {
    /// The timed phase, by measurement window.
    pub windows: Vec<WindowTally>,
    /// Ops run in any phase, and how many returned an error (any error
    /// ends the run as a violation).
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
}

/// A closed-loop client: its own session, key stream and model.
pub struct Client {
    pub id: usize,
    pub model: Model,
    spec: Spec,
    keys: KeyPicker,
    rng: Rng,
    value: Vec<u8>,
    pairs: Vec<(u64, Vec<u8>)>,
    pub tally: Tally,
}

impl Client {
    pub fn new(id: usize, spec: &Spec, seed: u64) -> Client {
        let stream = seed.wrapping_mul(CLIENTS).wrapping_add(id as u64);
        Client {
            id,
            model: Model::new(id, spec.key_space, |k| spec.preloaded(seed, k)),
            keys: KeyPicker::new(spec.key_space, spec.dist.clone(), stream),
            rng: Rng::new(stream ^ 0x5EED),
            value: vec![0; spec.value_len],
            pairs: Vec::with_capacity(spec.scan_len as usize),
            spec: spec.clone(),
            tally: Tally::default(),
        }
    }

    /// Runs ops until the main thread says `STOP`, or exactly `limit` ops (as
    /// warm-up, untimed) when given. Returns the first correctness
    /// violation, after telling the main thread to stop.
    pub fn run(&mut self, db: &Db, phase: &Phase, limit: Option<u64>) -> Result<(), String> {
        let mut s = db.session();
        let mut done = 0;
        loop {
            let (mode, window) = match limit {
                Some(n) if done == n => return Ok(()),
                Some(_) => (WARMUP, 0),
                None => match phase.get() {
                    (STOP, _) => return Ok(()),
                    p => p,
                },
            };
            if let Err(e) = self.step(db, &mut s, mode, window) {
                phase.stop();
                return Err(format!("client {}: {e}", self.id));
            }
            done += 1;
        }
    }

    fn pick_op(&mut self) -> Op {
        let mut r = self.rng.below(1000);
        for op in OPS {
            if r < self.spec.mix[op as usize] {
                return op;
            }
            r -= self.spec.mix[op as usize];
        }
        unreachable!("the mix sums to 1000")
    }

    /// The next key this client may write: the drawn key moved onto the
    /// nearest key it owns.
    fn owned_key(&mut self) -> u64 {
        let k = self.keys.next_key();
        k - k % CLIENTS + self.id as u64
    }

    fn step(
        &mut self,
        db: &Db,
        s: &mut DbSession<'_>,
        mode: u8,
        window: usize,
    ) -> Result<(), String> {
        let op = self.pick_op();
        let len = self.spec.value_len;
        let traced = mode == TRACED;
        let mut failed = false;
        let mut user_bytes = 0;
        let mut scan_pairs = 0;
        let t0;
        let checked = match op {
            Op::Get => {
                let key = self.keys.next_key();
                t0 = Instant::now();
                let r = if traced {
                    Traced::new(db, s, &mut self.tally.ledger).get_with(key, |b| b.to_vec())
                } else {
                    s.get(key)
                };
                let ns = t0.elapsed();
                match r {
                    Ok(v) if owner(key) == self.id => self.model.check(key, v.as_deref(), len),
                    Ok(Some(v)) => decode(key, &v, len).map(drop),
                    Ok(None) => Ok(()),
                    Err(e) => {
                        failed = true;
                        Err(format!("get of key {key} failed: {e}"))
                    }
                }
                .map(|()| ns)
            }
            Op::Put => {
                let key = self.owned_key();
                let version = self.model.fresh_version();
                encode(key, version, &mut self.value);
                t0 = Instant::now();
                let r = if traced {
                    Traced::new(db, s, &mut self.tally.ledger).put(key, &self.value)
                } else {
                    s.put(key, &self.value)
                };
                let ns = t0.elapsed();
                user_bytes = 8 + len as u64;
                let want = if self.model.present(key) {
                    PutOutcome::Replaced
                } else {
                    PutOutcome::Inserted
                };
                match r {
                    Ok(got) if got != want => Err(format!(
                        "put of key {key} returned {got:?}, expected {want:?}"
                    )),
                    Ok(_) => {
                        self.model.set(key, Some(version));
                        Ok(ns)
                    }
                    Err(e) => {
                        failed = true;
                        Err(format!("put of key {key} failed: {e}"))
                    }
                }
            }
            Op::Delete => {
                let key = self.owned_key();
                t0 = Instant::now();
                let r = if traced {
                    Traced::new(db, s, &mut self.tally.ledger).delete(key)
                } else {
                    s.delete(key)
                };
                let ns = t0.elapsed();
                user_bytes = 8;
                let want = self.model.present(key);
                match r {
                    Ok(got) if got != want => Err(format!(
                        "delete of key {key} returned {got}, expected {want}"
                    )),
                    Ok(_) => {
                        self.model.set(key, None);
                        Ok(ns)
                    }
                    Err(e) => {
                        failed = true;
                        Err(format!("delete of key {key} failed: {e}"))
                    }
                }
            }
            Op::Scan => {
                let lo = self.rng.below(self.spec.key_space);
                let hi = lo + self.spec.scan_len - 1;
                let pairs = &mut self.pairs;
                pairs.clear();
                t0 = Instant::now();
                let r = if traced {
                    Traced::new(db, s, &mut self.tally.ledger)
                        .scan(lo, hi, |k, v| pairs.push((k, v)))
                } else {
                    s.scan(lo, hi).try_for_each(|p| p.map(|kv| pairs.push(kv)))
                };
                let ns = t0.elapsed();
                scan_pairs = self.pairs.len() as u64;
                match r {
                    Ok(()) => self.check_scan(lo, hi, &self.pairs).map(|()| ns),
                    Err(e) => {
                        failed = true;
                        Err(format!("scan [{lo}, {hi}] failed: {e}"))
                    }
                }
            }
        };
        // An op that returns an error counts as attempted and failed, and
        // is a violation: no workload injects faults.
        self.tally.attempted += 1;
        self.tally.failed += failed as u64;
        let ns = checked?;
        if mode == UNTRACED || mode == TRACED {
            let windows = &mut self.tally.windows;
            if windows.len() <= window {
                windows.resize_with(window + 1, WindowTally::default);
            }
            let w = &mut windows[window];
            w.ops += 1;
            w.user_bytes += user_bytes;
            if mode == UNTRACED {
                w.scan_pairs += scan_pairs;
                w.lat[op as usize].push(u32::try_from(ns.as_nanos()).unwrap_or(u32::MAX));
            }
        }
        Ok(())
    }

    /// A scan must return keys in order inside its range, each value must
    /// carry its own key, and the owned keys in the range must be exactly
    /// the ones the model holds, with their acknowledged values.
    fn check_scan(&self, lo: u64, hi: u64, pairs: &[(u64, Vec<u8>)]) -> Result<(), String> {
        let len = self.spec.value_len;
        let mut prev = None;
        let mut mine = pairs
            .iter()
            .filter(|(k, _)| owner(*k) == self.id)
            .peekable();
        for (k, v) in pairs {
            if *k < lo || *k > hi || prev.is_some_and(|p| p >= *k) {
                return Err(format!("scan [{lo}, {hi}] returned key {k} after {prev:?}"));
            }
            prev = Some(*k);
            if owner(*k) != self.id {
                decode(*k, v, len)?;
            }
        }
        for key in self.model.owned_in(lo, hi) {
            let got = mine.next_if(|(k, _)| *k == key);
            self.model.check(key, got.map(|(_, v)| v.as_slice()), len)?;
        }
        match mine.next() {
            Some((k, _)) => Err(format!(
                "scan [{lo}, {hi}] returned key {k} out of model order"
            )),
            None => Ok(()),
        }
    }
}
