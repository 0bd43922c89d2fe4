//! The traced run: each operation re-issued as the public calls `DbSession`
//! itself makes into `sagiv-blink`, `blink-pagestore` and `blink-durable`,
//! with a span around every call. A span starts where the op's previous
//! span ended (one clock read per boundary), so the few instructions
//! between two calls count toward the second.
//!
//! A get is `BLinkTree::search` then `RecordHeap::read_with`; a scan is the
//! tree's cursor steps, each joined with `read_with`; a put or delete is
//! `PageStore::throttle_dirty`, then `DurableStore::with_deferred_commit`
//! around the tree and heap calls in `put_inner`'s order. The op's own
//! span is its root; whatever of its wall time no child covers is
//! `bench.unattributed_pct`.

use blink_db::{Db, DbSession, PutOutcome};
use blink_pagestore::{RecordId, Session, StoreError};
use sagiv_blink::{Result, TreeError};
use std::time::Instant;

/// `blink_db`'s bound on re-reading a record freed under a reader.
const READ_RETRIES: u64 = 64;

/// Every span the traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    OpGet,
    OpPut,
    OpDelete,
    OpScan,
    Search,
    Upsert,
    TreeDelete,
    ScanNext,
    HeapRead,
    HeapWrite,
    HeapFree,
    Throttle,
    /// Self time of `with_deferred_commit`: the commit beyond its children.
    Commit,
}

const SPANS: usize = 13;
const OPS: [Span; 4] = [Span::OpGet, Span::OpPut, Span::OpDelete, Span::OpScan];

/// Per-client span totals: time and count per span, plus the part of
/// each op's wall time its direct children cover.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    ns: [u64; SPANS],
    count: [u64; SPANS],
    /// Sum over finished ops of the time their direct children cover.
    covered_ns: u64,
    /// The same for the op in progress.
    open_ns: u64,
    /// Where the op in progress last crossed a span boundary: its start,
    /// or the end of its previous child. The next child starts here, so
    /// one clock read marks each boundary; `None` after benchmark work
    /// that no span may cover.
    mark: Option<Instant>,
}

impl Ledger {
    fn add(&mut self, span: Span, ns: u64) {
        self.ns[span as usize] += ns;
        self.count[span as usize] += 1;
    }

    /// Opens an op: its wall time starts now.
    fn start_op(&mut self) -> Instant {
        let t0 = Instant::now();
        self.mark = Some(t0);
        t0
    }

    /// Runs `f` as a direct child span of the op in progress, from the
    /// last boundary to the end of `f`.
    fn child<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let t0 = self.mark.unwrap_or_else(Instant::now);
        let r = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        self.add(span, ns);
        self.open_ns += ns;
        self.mark = Some(t1);
        r
    }

    /// Marks benchmark work (a scan's consumer): it stays unattributed.
    fn gap(&mut self) {
        self.mark = None;
    }

    /// Runs `f` inside `with_deferred_commit`: the scope becomes the op's
    /// direct child, the spans `f` records its children, and the rest of
    /// the scope the commit's self time.
    fn commit_scope<T>(&mut self, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let outer = self.open_ns;
        self.open_ns = 0;
        let t0 = *self.mark.get_or_insert_with(Instant::now);
        let r = f(self);
        let t1 = Instant::now();
        let scope = (t1 - t0).as_nanos() as u64;
        self.add(Span::Commit, scope.saturating_sub(self.open_ns));
        self.open_ns = outer + scope;
        self.mark = Some(t1);
        r
    }

    /// Closes the op in progress as a `span` op that started at `t0`.
    fn finish_op(&mut self, span: Span, t0: Instant) {
        let wall = t0.elapsed().as_nanos() as u64;
        self.add(span, wall);
        self.covered_ns += self.open_ns.min(wall);
        self.open_ns = 0;
        self.mark = None;
    }

    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..SPANS {
            self.ns[i] += other.ns[i];
            self.count[i] += other.count[i];
        }
        self.covered_ns += other.covered_ns;
    }

    /// Mean duration of `span` in ns (0 when it never ran).
    pub fn mean_ns(&self, span: Span) -> f64 {
        match self.count[span as usize] {
            0 => 0.0,
            n => self.ns[span as usize] as f64 / n as f64,
        }
    }

    pub fn count(&self, span: Span) -> u64 {
        self.count[span as usize]
    }

    /// Share (%) of all op wall time no direct child span covers.
    pub fn unattributed_pct(&self) -> f64 {
        let wall: u64 = OPS.iter().map(|&s| self.ns[s as usize]).sum();
        if wall == 0 {
            return 0.0;
        }
        100.0 * wall.saturating_sub(self.covered_ns) as f64 / wall as f64
    }

    /// Share (%) of all op wall time spent in `span`.
    pub fn share_pct(&self, span: Span) -> f64 {
        let wall: u64 = OPS.iter().map(|&s| self.ns[s as usize]).sum();
        if wall == 0 {
            return 0.0;
        }
        100.0 * self.ns[span as usize] as f64 / wall as f64
    }
}

fn decode_rid(raw: u64) -> Result<RecordId> {
    RecordId::from_raw(raw).ok_or(TreeError::Corrupt("index holds an invalid record id"))
}

/// `blink_db`'s `free_quiet`: a record already freed by a racing writer is
/// counted as a benign double free, anything else propagates.
fn free_quiet(db: &Db, raw: u64) -> Result<()> {
    match decode_rid(raw).and_then(|rid| Ok(db.heap().free(rid)?)) {
        Err(TreeError::Store(StoreError::RecordMissing(_))) => {
            db.heap().note_double_free();
            Ok(())
        }
        r => r,
    }
}

/// A traced session: the tree session a `DbSession` wraps, plus a ledger.
pub struct Traced<'a> {
    db: &'a Db,
    session: &'a mut Session,
    ledger: &'a mut Ledger,
}

impl<'a> Traced<'a> {
    pub fn new(db: &'a Db, s: &'a mut DbSession<'_>, ledger: &'a mut Ledger) -> Traced<'a> {
        Traced {
            db,
            session: s.inner(),
            ledger,
        }
    }

    /// `DbSession::get_with`, traced.
    pub fn get_with<R>(&mut self, key: u64, mut f: impl FnMut(&[u8]) -> R) -> Result<Option<R>> {
        let (db, session, l) = (self.db, &mut *self.session, &mut *self.ledger);
        let t0 = l.start_op();
        let r = (|| {
            for _ in 0..READ_RETRIES {
                let Some(raw) = l.child(Span::Search, || db.tree().search(session, key))? else {
                    return Ok(None);
                };
                let rid = decode_rid(raw)?;
                match l.child(Span::HeapRead, || db.heap().read_with(rid, &mut f)) {
                    Ok(r) => return Ok(Some(r)),
                    Err(StoreError::RecordMissing(_)) => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            Err(TreeError::TooManyRestarts {
                attempts: READ_RETRIES,
            })
        })();
        l.finish_op(Span::OpGet, t0);
        r
    }

    /// `DbSession::put`, traced.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<PutOutcome> {
        self.write_op(Span::OpPut, |db, s, l| put_inner(db, s, l, key, value))
    }

    /// `DbSession::delete`, traced.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        self.write_op(Span::OpDelete, |db, s, l| delete_inner(db, s, l, key))
    }

    /// The frame `DbSession::put` and `delete` share: backpressure, then
    /// `inner` under one deferred commit on a durable store.
    fn write_op<T>(
        &mut self,
        span: Span,
        inner: impl FnOnce(&Db, &mut Session, &mut Ledger) -> Result<T>,
    ) -> Result<T> {
        let (db, session, l) = (self.db, &mut *self.session, &mut *self.ledger);
        let t0 = l.start_op();
        l.child(Span::Throttle, || db.store().throttle_dirty());
        let r = match db.durable() {
            Some(ds) => l.commit_scope(|l| {
                let (r, commit) = ds.with_deferred_commit(|| inner(db, session, l));
                r.and_then(|v| {
                    commit?;
                    Ok(v)
                })
            }),
            None => inner(db, session, l),
        };
        l.finish_op(span, t0);
        r
    }

    /// `DbSession::scan` over `lo..=hi`, traced, handing every pair to
    /// `sink`.
    pub fn scan(&mut self, lo: u64, hi: u64, mut sink: impl FnMut(u64, Vec<u8>)) -> Result<()> {
        let (db, session, l) = (self.db, &mut *self.session, &mut *self.ledger);
        let t0 = l.start_op();
        session.begin_op();
        let mut cursor = db.tree().scan_cursor(lo, hi);
        let r = (|| {
            while let Some((key, raw)) =
                l.child(Span::ScanNext, || cursor.next(db.tree(), session))?
            {
                if let Some(v) = resolve(db, session, l, key, raw)? {
                    sink(key, v);
                    l.gap();
                }
            }
            Ok(())
        })();
        session.end_op();
        l.finish_op(Span::OpScan, t0);
        r
    }
}

/// `DbSession::put_inner`'s calls, each a child span.
fn put_inner(
    db: &Db,
    session: &mut Session,
    l: &mut Ledger,
    key: u64,
    value: &[u8],
) -> Result<PutOutcome> {
    if let Some(raw) = l.child(Span::Search, || db.tree().search(session, key))? {
        let rid = decode_rid(raw)?;
        match l.child(Span::HeapWrite, || db.heap().update(rid, value)) {
            Ok(new_rid) if new_rid == rid => return Ok(PutOutcome::Replaced),
            Ok(new_rid) => {
                let old = l.child(Span::Upsert, || {
                    db.tree().upsert(session, key, new_rid.to_raw())
                })?;
                return match old {
                    Some(old_raw) => {
                        l.child(Span::HeapFree, || free_quiet(db, old_raw))?;
                        Ok(PutOutcome::Replaced)
                    }
                    None => Ok(PutOutcome::Inserted),
                };
            }
            Err(StoreError::RecordMissing(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let rid = l.child(Span::HeapWrite, || db.heap().insert(value))?;
    match l.child(Span::Upsert, || {
        db.tree().upsert(session, key, rid.to_raw())
    }) {
        Ok(None) => Ok(PutOutcome::Inserted),
        Ok(Some(old_raw)) => {
            l.child(Span::HeapFree, || free_quiet(db, old_raw))?;
            Ok(PutOutcome::Replaced)
        }
        Err(e) => {
            let _ = db.heap().free(rid);
            Err(e)
        }
    }
}

/// `DbSession::delete_inner`'s calls, each a child span.
fn delete_inner(db: &Db, session: &mut Session, l: &mut Ledger, key: u64) -> Result<bool> {
    match l.child(Span::TreeDelete, || db.tree().delete(session, key))? {
        Some(raw) => {
            l.child(Span::HeapFree, || free_quiet(db, raw))?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// `DbScan::resolve`: a record freed under the scan is looked up again
/// inside the scan's own operation; `None` when the key was deleted.
fn resolve(
    db: &Db,
    session: &mut Session,
    l: &mut Ledger,
    key: u64,
    mut raw: u64,
) -> Result<Option<Vec<u8>>> {
    for _ in 0..READ_RETRIES {
        let rid = decode_rid(raw)?;
        match l.child(Span::HeapRead, || db.heap().read_with(rid, |b| b.to_vec())) {
            Ok(v) => return Ok(Some(v)),
            Err(StoreError::RecordMissing(_)) => {
                match l.child(Span::Search, || db.tree().search_in_op(session, key))? {
                    Some(next_raw) if next_raw != raw => raw = next_raw,
                    _ => return Ok(None),
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(TreeError::TooManyRestarts {
        attempts: READ_RETRIES,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_self_time_excludes_children_and_ops_cover_the_scope() {
        let mut l = Ledger::default();
        let t0 = l.start_op();
        l.child(Span::Throttle, || ());
        l.commit_scope(|l| {
            l.child(Span::Search, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        l.finish_op(Span::OpPut, t0);
        assert!(l.mean_ns(Span::Commit) >= 2e6);
        assert!(l.mean_ns(Span::Commit) < l.mean_ns(Span::OpPut));
        assert!(l.unattributed_pct() < 10.0, "{}", l.unattributed_pct());
    }
}
