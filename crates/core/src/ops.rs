//! The logical operations: `search` (Fig. 4), `insert` (Figs. 5–6),
//! `delete` (§4), and link-order range scans.

use crate::compress::queue::QueueItem;
use crate::config::UnderflowPolicy;
use crate::counters::TreeCounters;
use crate::error::Result;
use crate::key::{Bound, Key};
use crate::node::{Next, Node, NodeView};
use crate::prime::PrimeBlock;
use crate::traverse::Budget;
use crate::tree::{BLinkTree, InsertOutcome};
use blink_pagestore::{PageId, Session};

impl BLinkTree {
    // ==================================================================
    // search (Fig. 4)
    // ==================================================================

    /// Searches for `v`. Lock-free: readers "do not use any lock and can
    /// read a node even if it is locked by an updater".
    pub fn search(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        session.begin_op();
        let r = self.search_inner(session, v);
        session.end_op();
        r
    }

    /// [`BLinkTree::search`] without the op bracketing: runs inside the
    /// caller's already-open logical operation, leaving the session's §5.3
    /// start stamp untouched. For cursors that interleave point lookups
    /// with an in-flight scan (the `Db` facade's record re-resolution) —
    /// a plain `search` would end the operation and lapse the reclamation
    /// horizon protecting the rest of the scan.
    pub fn search_in_op(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        self.search_inner(session, v)
    }

    fn search_inner(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        let mut budget = Budget::new(self.cfg.max_restarts);
        // The leaf answers from its bytes under its read latch: the lookup
        // when `v` belongs here, else the link to move right along.
        let leaf = |n: &NodeView<'_>| match n.next(v) {
            Next::Here => Ok(n.leaf_get(v)),
            Next::Link(l) => Err(l),
            Next::Child(_) => unreachable!("level-0 node routed to a child"),
        };
        let mut at = self
            .descend_with(session, v, 0, false, &mut budget, leaf)?
            .node;
        loop {
            match at {
                Ok(found) => return Ok(found),
                // `moveright`: follow links until the leaf where v belongs.
                Err(link) => {
                    self.note_link(session);
                    let mut cur = link;
                    let step = self.step_node_with(session, &mut cur, 0, |n| {
                        (!n.wrong_node(v)).then(|| leaf(n))
                    })?;
                    at = match step.flatten() {
                        Some(next) => next,
                        None => {
                            budget.restart(session, &self.counters)?;
                            self.descend_with(session, v, 0, false, &mut budget, leaf)?
                                .node
                        }
                    };
                }
            }
        }
    }

    // ==================================================================
    // insert (Figs. 5 and 6)
    // ==================================================================

    /// Inserts `(v, value)`. Holds **at most one lock at any time** — the
    /// paper's headline improvement over \[8\] (Theorem 1's deadlock-freedom
    /// argument rests on this; tests assert it via session stats).
    pub fn insert(&self, session: &mut Session, v: Key, value: u64) -> Result<InsertOutcome> {
        session.begin_op();
        let r = self.insert_impl(session, v, value, false);
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        Ok(match r? {
            Some(_) => InsertOutcome::Duplicate,
            None => InsertOutcome::Inserted,
        })
    }

    /// Inserts `(v, value)`, **replacing** the value if `v` is already
    /// present (the §3.2 duplicate report becomes an in-place value swap in
    /// the covering leaf, under the same single lock). Returns the old
    /// value when one existed. This is the write primitive behind the `Db`
    /// facade's `put`.
    pub fn upsert(&self, session: &mut Session, v: Key, value: u64) -> Result<Option<u64>> {
        session.begin_op();
        let r = self.insert_impl(session, v, value, true);
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        r
    }

    /// Shared insert/upsert machinery. Returns `Some(old)` when `v` was
    /// already present (value replaced iff `replace`), `None` when the pair
    /// was freshly inserted.
    fn insert_impl(
        &self,
        session: &mut Session,
        v: Key,
        value: u64,
        replace: bool,
    ) -> Result<Option<u64>> {
        let mut budget = Budget::new(self.cfg.max_restarts);
        // movedown-and-stack (the leaf itself is re-read under its lock).
        let d = self.descend_with(session, v, 0, true, &mut budget, |_| ())?;
        let mut stack = d.stack;
        let mut hint = d.pid;

        // The pair to insert at the current level: (key, payload). At the
        // leaf it is (v, value); on the way up it becomes (separator,
        // new-sibling pointer).
        let mut level: u8 = 0;
        let mut pair_key = v;
        let mut pair_val = value;

        loop {
            let (pid, mut node) =
                self.lock_covering(session, pair_key, hint, level, &mut budget)?;
            if level == 0 {
                if let Some(old) = node.leaf_get(pair_key) {
                    // "v is already in the tree" — either report it (§3.2's
                    // insert) or swap the value in place (upsert). Neither
                    // changes the leaf's pair count, so no split can follow.
                    if replace {
                        let replaced = node.leaf_set(pair_key, pair_val);
                        debug_assert_eq!(replaced, Some(old));
                        self.write_node(pid, &node)?;
                    }
                    self.store.unlock(pid, session);
                    return Ok(Some(old));
                }
                let inserted = node.leaf_insert(pair_key, pair_val);
                debug_assert!(inserted);
            } else {
                node.internal_insert_sep(
                    pair_key,
                    PageId::from_raw(pair_val as u32).expect("nil sibling pointer"),
                );
            }

            if node.pairs() <= self.cfg.max_pairs() {
                // insert-into-safe: rewrite in a single indivisible put.
                self.write_node(pid, &node)?;
                self.store.unlock(pid, session);
                return Ok(None);
            }

            if node.is_root {
                // insert-into-unsafe-root.
                self.split_root(session, pid, node, pair_key)?;
                return Ok(None);
            }

            // insert-into-unsafe: split, writing the new node B before
            // rewriting A (Fig. 3's two steps), then propagate the pair
            // (A.high, B) to the next higher level.
            let q = self.store.alloc()?;
            let right = node.split(q);
            self.write_node(q, &right)?;
            self.write_node(pid, &node)?;
            self.store.unlock(pid, session);
            TreeCounters::bump(&self.counters.splits);

            pair_key = node.high.expect_key("high value of split left half");
            pair_val = u64::from(q.to_raw());
            level += 1;
            hint = match stack.pop() {
                Some(t) => t,
                // Stack empty but the level exists (or is about to): §3.2's
                // "minor detail" + §3.3's wait-and-reread.
                None => self.leftmost_at_level(level)?,
            };
        }
    }

    /// insert-into-unsafe-root (Fig. 6): split the root and build a new
    /// root above both halves, holding the old root's lock throughout so
    /// two roots can never be created simultaneously (§3.2).
    ///
    /// `inserted` is the pair key this overflow is carrying (the user key
    /// at a leaf, the propagated separator at an internal level); the
    /// error path needs it to reconstruct the pre-insert root image.
    fn split_root(
        &self,
        session: &mut Session,
        pid: PageId,
        mut node: Node,
        inserted: Key,
    ) -> Result<()> {
        debug_assert!(node.is_root);
        // The publish sequence below is a chain of separately-committed
        // page writes. An I/O failure after the demotion write reached the
        // store leaves a tree with *no* root anywhere: the prime block
        // still says height `h`, no node carries the root bit, and every
        // later overflow of the top level waits forever (§3.3) for a level
        // nobody will ever publish. Keep the pre-insert image so the error
        // path can put the root back.
        let mut pristine = node.clone();
        pristine.entries.retain(|&(k, _)| k != inserted);
        node.is_root = false;
        if let Err(e) = self.split_root_publish(pid, &mut node) {
            // Roll back: rewrite the old root exactly as it was before
            // this insert touched it. The lock on `pid` is still held, so
            // no other split can interleave, and the sibling/new-root
            // pages the sequence may have published hold no data the
            // restored root does not — they become orphans that
            // recovery's garbage collection reclaims on the next reopen.
            if let Err(restore) = self.write_node(pid, &pristine) {
                // Even the rollback write failed: the tree may genuinely
                // be rootless now. Poison the store so every later
                // operation fails fast and typed instead of spinning its
                // restart budget; reopen + recovery rebuild the index
                // from the leaf chain.
                let cause = match restore {
                    crate::error::TreeError::Store(s) => s,
                    other => blink_pagestore::StoreError::Io(format!(
                        "root split rollback failed: {other}"
                    )),
                };
                self.store.health().poison(cause);
            }
            return Err(e);
        }
        self.store.unlock(pid, session);
        TreeCounters::bump(&self.counters.splits);
        TreeCounters::bump(&self.counters.root_splits);
        Ok(())
    }

    /// The fallible page-write sequence of [`split_root`]: sibling,
    /// demoted left half, new root, prime block — in that order, each an
    /// independently-committed put.
    fn split_root_publish(&self, pid: PageId, node: &mut Node) -> Result<()> {
        let q = self.store.alloc()?;
        let right = node.split(q);
        self.write_node(q, &right)?;
        self.write_node(pid, node)?; // old root loses its root bit here

        let r = self.store.alloc()?;
        let mut root = Node::new_internal(node.level + 1);
        root.is_root = true;
        root.low = Bound::NegInf;
        root.high = right.high; // = +inf: the root spans everything
        root.link = None;
        root.p0 = Some(pid);
        root.entries = vec![(
            node.high.expect_key("separator under new root"),
            u64::from(q.to_raw()),
        )];
        self.write_node(r, &root)?;

        let mut prime = self.read_prime()?;
        debug_assert_eq!(prime.root, pid, "root bit held but prime disagrees");
        prime.push_root(r);
        self.write_prime(&prime)?;
        Ok(())
    }

    // ==================================================================
    // delete (§4 + §5.4 enqueue)
    // ==================================================================

    /// Deletes `v`, returning its value if present. Per §4 the removal
    /// itself is \[8\]'s trivial one (rewrite the leaf, nothing else); what
    /// happens when the leaf drops below `k` pairs is governed by
    /// [`UnderflowPolicy`]: nothing, enqueue for workers (§5.4), or
    /// compress inline in this very process (abstract / §5.4 option 3).
    pub fn delete(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        session.begin_op();
        let r = self.delete_inner(session, v);
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        r
    }

    fn delete_inner(&self, session: &mut Session, v: Key) -> Result<Option<u64>> {
        let mut budget = Budget::new(self.cfg.max_restarts);
        let d = self.descend_with(session, v, 0, true, &mut budget, |_| ())?;
        let (pid, mut node) = self.lock_covering(session, v, d.pid, 0, &mut budget)?;
        let old = node.leaf_remove(v);
        let mut inline_item = None;
        if old.is_some() {
            self.write_node(pid, &node)?;
            if node.pairs() < self.cfg.k && !node.is_root {
                // The item is built while the lock is held: "the current
                // lock on A must be kept by the process until it puts A on
                // the queue".
                let item = QueueItem {
                    pid,
                    level: 0,
                    high: node.high,
                    stack: d.stack,
                    stamp: session.start_stamp(),
                    attempts: 0,
                };
                match self.cfg.underflow_policy {
                    UnderflowPolicy::Ignore => {}
                    UnderflowPolicy::Enqueue => {
                        self.queue.enqueue_update(item);
                        TreeCounters::bump(&self.counters.enqueues);
                    }
                    UnderflowPolicy::Inline => {
                        TreeCounters::bump(&self.counters.enqueues);
                        inline_item = Some(item);
                    }
                }
            }
        }
        self.store.unlock(pid, session);
        if let Some(item) = inline_item {
            // Abstract / §5.4 option 3: the deleting process itself acts as
            // the compression process for the node it just under-filled.
            self.compress_inline(session, item)?;
        }
        Ok(old)
    }

    // ==================================================================
    // range scans (an API the link structure makes natural)
    // ==================================================================

    /// Collects all pairs with keys in `[lo, hi]`, in key order.
    ///
    /// Compatibility wrapper over the streaming [`crate::scan::Scan`]
    /// cursor (see [`BLinkTree::scan`]): same lock-free, restart-safe
    /// link-walk, but materialized into a `Vec`. Prefer `scan` for large
    /// ranges.
    pub fn range(&self, session: &mut Session, lo: Key, hi: Key) -> Result<Vec<(Key, u64)>> {
        self.scan(session, lo, hi).collect()
    }

    /// Number of pairs currently in the tree (streaming full scan; for
    /// tests and examples, not performance-critical paths).
    pub fn count(&self, session: &mut Session) -> Result<usize> {
        let mut n = 0usize;
        for pair in self.scan(session, 0, u64::MAX) {
            pair?;
            n += 1;
        }
        Ok(n)
    }

    /// A snapshot of the prime block (for tools and verification).
    pub fn prime_snapshot(&self) -> Result<PrimeBlock> {
        self.read_prime()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use blink_pagestore::{PageStore, StoreConfig};
    use std::sync::Arc;

    fn tree(k: usize) -> Arc<BLinkTree> {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
    }

    #[test]
    fn insert_and_search_single_leaf() {
        let t = tree(4);
        let mut s = t.session();
        assert_eq!(t.insert(&mut s, 10, 100).unwrap(), InsertOutcome::Inserted);
        assert_eq!(t.insert(&mut s, 20, 200).unwrap(), InsertOutcome::Inserted);
        assert_eq!(t.insert(&mut s, 10, 999).unwrap(), InsertOutcome::Duplicate);
        assert_eq!(t.search(&mut s, 10).unwrap(), Some(100));
        assert_eq!(t.search(&mut s, 20).unwrap(), Some(200));
        assert_eq!(t.search(&mut s, 15).unwrap(), None);
        assert_eq!(t.height().unwrap(), 1);
    }

    #[test]
    fn inserts_trigger_splits_and_root_growth() {
        let t = tree(2); // max 4 pairs per node
        let mut s = t.session();
        for i in 1..=100u64 {
            t.insert(&mut s, i, i * 2).unwrap();
        }
        assert!(t.height().unwrap() >= 3);
        assert!(t.counters().snapshot().splits > 10);
        assert!(t.counters().snapshot().root_splits >= 2);
        for i in 1..=100u64 {
            assert_eq!(t.search(&mut s, i).unwrap(), Some(i * 2), "key {i}");
        }
        assert_eq!(t.search(&mut s, 0).unwrap(), None);
        assert_eq!(t.search(&mut s, 101).unwrap(), None);
    }

    #[test]
    fn reverse_and_shuffled_insertion_orders() {
        for order in 0..3 {
            let t = tree(2);
            let mut s = t.session();
            let mut keys: Vec<u64> = (1..=200).collect();
            match order {
                0 => {}
                1 => keys.reverse(),
                _ => {
                    // Deterministic shuffle.
                    let n = keys.len();
                    for i in 0..n {
                        keys.swap(i, (i * 7919 + 13) % n);
                    }
                }
            }
            for &k in &keys {
                t.insert(&mut s, k, k).unwrap();
            }
            for k in 1..=200u64 {
                assert_eq!(
                    t.search(&mut s, k).unwrap(),
                    Some(k),
                    "order {order} key {k}"
                );
            }
        }
    }

    #[test]
    fn upsert_replaces_in_place_and_inserts_when_absent() {
        let t = tree(2);
        let mut s = t.session();
        for i in 0..300u64 {
            assert_eq!(t.upsert(&mut s, i, i).unwrap(), None, "fresh insert");
        }
        for i in 0..300u64 {
            assert_eq!(t.upsert(&mut s, i, i * 10).unwrap(), Some(i), "replace");
            assert_eq!(t.search(&mut s, i).unwrap(), Some(i * 10));
        }
        // A replace changes no structure: pair count is unchanged.
        assert_eq!(t.count(&mut s).unwrap(), 300);
        t.verify(false).unwrap().assert_ok();
        // And holds at most one lock, like insert.
        assert_eq!(s.stats().max_simultaneous_locks, 1);
    }

    #[test]
    fn delete_returns_old_value_and_removes() {
        let t = tree(2);
        let mut s = t.session();
        for i in 1..=50u64 {
            t.insert(&mut s, i, i + 1000).unwrap();
        }
        assert_eq!(t.delete(&mut s, 25).unwrap(), Some(1025));
        assert_eq!(t.delete(&mut s, 25).unwrap(), None);
        assert_eq!(t.search(&mut s, 25).unwrap(), None);
        assert_eq!(t.search(&mut s, 24).unwrap(), Some(1024));
        assert_eq!(t.delete(&mut s, 9999).unwrap(), None);
    }

    #[test]
    fn deletion_underflow_enqueues_for_compression() {
        let t = tree(2);
        let mut s = t.session();
        for i in 1..=20u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        assert_eq!(t.queue_len(), 0);
        for i in 1..=20u64 {
            t.delete(&mut s, i).unwrap();
        }
        assert!(t.queue_len() > 0, "underflowing leaves must be enqueued");
        assert!(t.counters().snapshot().enqueues > 0);
    }

    #[test]
    fn trivial_deletion_mode_does_not_enqueue() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let cfg = TreeConfig::with_k_and_policy(2, crate::config::UnderflowPolicy::Ignore);
        let t = BLinkTree::create(store, cfg).unwrap();
        let mut s = t.session();
        for i in 1..=20u64 {
            t.insert(&mut s, i, i).unwrap();
        }
        for i in 1..=20u64 {
            t.delete(&mut s, i).unwrap();
        }
        assert_eq!(t.queue_len(), 0);
    }

    #[test]
    fn range_scan_in_order() {
        let t = tree(2);
        let mut s = t.session();
        for i in (2..=100u64).step_by(2) {
            t.insert(&mut s, i, i * 3).unwrap();
        }
        let got = t.range(&mut s, 10, 20).unwrap();
        assert_eq!(
            got,
            vec![(10, 30), (12, 36), (14, 42), (16, 48), (18, 54), (20, 60)]
        );
        assert_eq!(t.range(&mut s, 0, 1).unwrap(), vec![]);
        assert_eq!(t.range(&mut s, 99, 98).unwrap(), vec![]);
        assert_eq!(t.count(&mut s).unwrap(), 50);
        let all = t.range(&mut s, 0, u64::MAX).unwrap();
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "scan must be sorted"
        );
    }

    #[test]
    fn boundary_keys() {
        let t = tree(2);
        let mut s = t.session();
        t.insert(&mut s, 0, 1).unwrap();
        t.insert(&mut s, u64::MAX, 2).unwrap();
        assert_eq!(t.search(&mut s, 0).unwrap(), Some(1));
        assert_eq!(t.search(&mut s, u64::MAX).unwrap(), Some(2));
        assert_eq!(t.range(&mut s, 0, u64::MAX).unwrap().len(), 2);
        assert_eq!(t.delete(&mut s, 0).unwrap(), Some(1));
        assert_eq!(t.delete(&mut s, u64::MAX).unwrap(), Some(2));
    }

    #[test]
    fn insert_holds_at_most_one_lock() {
        let t = tree(2);
        let mut s = t.session();
        for i in 1..=500u64 {
            t.insert(&mut s, i * 17 % 1009, i).ok();
        }
        let st = s.stats();
        assert!(st.locks_acquired > 0);
        assert_eq!(
            st.max_simultaneous_locks, 1,
            "the paper's claim: an insertion process locks only one node at any time"
        );
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let t = tree(3);
        let mut s = t.session();
        let mut model = BTreeMap::new();
        let mut x: u64 = 42;
        for step in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512;
            match step % 4 {
                0 | 1 => {
                    let r = t.insert(&mut s, key, step).unwrap();
                    let expected =
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                            e.insert(step);
                            InsertOutcome::Inserted
                        } else {
                            InsertOutcome::Duplicate
                        };
                    assert_eq!(r, expected);
                }
                2 => {
                    assert_eq!(t.delete(&mut s, key).unwrap(), model.remove(&key));
                }
                _ => {
                    assert_eq!(t.search(&mut s, key).unwrap(), model.get(&key).copied());
                }
            }
        }
        let got = t.range(&mut s, 0, u64::MAX).unwrap();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}
