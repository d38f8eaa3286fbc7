//! A disk-resident B-tree over `u64` keys.
//!
//! This is the storage engine underneath the linear PMR quadtree: the paper
//! stores each q-edge as an 8-byte 2-tuple *(locational code, segment id)*
//! "in a B-tree indexed on the basis of the value of L". We follow the
//! classic composite-key trick — the whole 2-tuple is the key — so the tree
//! is a **set of u64s** with fully ordered, duplicate-free keys, and range
//! scans over a locational-code prefix enumerate a bucket's q-edges.
//!
//! Layout (page size `S`):
//!
//! * **Leaf**: `[tag=0, _, count: u16, _pad to 8]` then `count` sorted
//!   little-endian `u64` keys. Capacity `(S - 8) / 8` (127 for the paper's
//!   1 KB pages; the paper reports ≈120, the difference being header
//!   bookkeeping).
//! * **Internal**: `[tag=1, _, count: u16, _pad to 8]`, then `child[0]:
//!   u32`, then `count` pairs `(sep: u64, child: u32)`. Separator `sep[i]`
//!   is a copy of the smallest key in `child[i+1]`'s subtree: child `i`
//!   holds keys `< sep[i]`, child `i+1` holds keys `>= sep[i]`.
//!
//! All nodes live in pages behind an [`lsdb_pager::BufferPool`], so every
//! traversal is charged realistic (potential) disk accesses.

use lsdb_pager::{BufferPool, PageId, PoolCtx};
use std::ops::ControlFlow;

mod node;
use node::{InternalView, LeafView, Tag};

/// Statistics on logical node activity (page-level I/O lives in the pool).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NodeStats {
    /// B-tree nodes examined (each examination touches one page).
    pub node_visits: u64,
}

/// A disk B-tree storing a set of `u64` keys.
pub struct BTree {
    pool: BufferPool,
    root: PageId,
    len: u64,
    height: u32,
    leaf_cap: usize,
    internal_cap: usize, // max separator keys per internal node
    stats: NodeStats,
}

/// What [`BTree::last_run_rec_ctx`] found: the predecessor key, its run,
/// its index in its leaf, and that leaf if the run's scan would stay on
/// the descent's path.
struct RunFound<'p> {
    key: u64,
    run: (u64, u64),
    pos: usize,
    leaf: Option<&'p [u8]>,
}

enum Insert {
    Done(bool),
    Split { sep: u64, right: PageId },
}

impl BTree {
    /// Create an empty tree owning `pool`.
    pub fn new(mut pool: BufferPool) -> Self {
        let page_size = pool.page_size();
        let leaf_cap = LeafView::capacity(page_size);
        let internal_cap = InternalView::capacity(page_size);
        assert!(leaf_cap >= 3 && internal_cap >= 3, "page size too small");
        let root = pool.allocate();
        pool.with_page_mut(root, LeafView::init);
        BTree {
            pool,
            root,
            len: 0,
            height: 1,
            leaf_cap,
            internal_cap,
            stats: NodeStats::default(),
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree in nodes (1 = the root is a leaf). The paper
    /// observes height 4 for its 50k-segment maps with 1 KB pages.
    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = NodeStats::default();
    }

    /// Insert a key; returns `false` if it was already present.
    pub fn insert(&mut self, key: u64) -> bool {
        match self.insert_rec(self.root, key, self.height) {
            Insert::Done(added) => {
                if added {
                    self.len += 1;
                }
                added
            }
            Insert::Split { sep, right } => {
                // Grow a new root above the old one.
                let old_root = self.root;
                let new_root = self.pool.allocate();
                self.pool.with_page_mut(new_root, |buf| {
                    InternalView::init(buf, old_root);
                    InternalView::insert_at(buf, 0, sep, right);
                });
                self.root = new_root;
                self.height += 1;
                self.len += 1;
                true
            }
        }
    }

    /// Remove a key; returns `false` if absent.
    pub fn remove(&mut self, key: u64) -> bool {
        let removed = self.remove_rec(self.root, key, self.height);
        if removed {
            self.len -= 1;
            // Collapse a root that became a trivial internal node.
            if self.height > 1 {
                let (count, only_child) = self.pool.with_page(self.root, |buf| {
                    (InternalView::count(buf), InternalView::child_at(buf, 0))
                });
                if count == 0 {
                    self.pool.free(self.root);
                    self.root = only_child;
                    self.height -= 1;
                }
            }
        }
        removed
    }

    /// Exact-key membership test.
    pub fn contains(&mut self, key: u64) -> bool {
        let mut pid = self.root;
        let mut level = self.height;
        loop {
            self.stats.node_visits += 1;
            if level == 1 {
                return self
                    .pool
                    .with_page(pid, |buf| LeafView::search(buf, key).is_ok());
            }
            pid = self
                .pool
                .with_page(pid, |buf| InternalView::child_for(buf, key));
            level -= 1;
        }
    }

    /// Visit all keys in `[lo, hi]` in ascending order. The callback may
    /// stop the scan early by returning [`ControlFlow::Break`].
    pub fn scan_range(
        &mut self,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo > hi {
            return ControlFlow::Continue(());
        }
        self.scan_rec(self.root, self.height, lo, hi, f)
    }

    /// Collect all keys in `[lo, hi]`.
    pub fn collect_range(&mut self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let _ = self.scan_range(lo, hi, &mut |k| {
            out.push(k);
            ControlFlow::Continue(())
        });
        out
    }

    /// Smallest key `>= lo` within `[lo, hi]`, if any.
    pub fn first_in_range(&mut self, lo: u64, hi: u64) -> Option<u64> {
        let mut found = None;
        let _ = self.scan_range(lo, hi, &mut |k| {
            found = Some(k);
            ControlFlow::Break(())
        });
        found
    }

    /// Largest key `<= hi` within `[lo, hi]`, if any. This is the
    /// predecessor search linear quadtrees use for point location.
    pub fn last_in_range(&mut self, lo: u64, hi: u64) -> Option<u64> {
        if lo > hi {
            return None;
        }
        self.last_rec(self.root, self.height, lo, hi)
    }

    // ------------------------------------------------------------------
    // Shared (&self) read path.
    //
    // Mirrors of the queries above that never touch the pool's LRU or the
    // tree's internal counters: page accesses are charged to the caller's
    // [`PoolCtx`], so any number of query threads can search one tree
    // concurrently while a batch's disk totals stay a plain per-context
    // sum. Build and maintenance stay on the exclusive (&mut) methods.
    // ------------------------------------------------------------------

    /// Visit all keys in `[lo, hi]` ascending, on the shared read path.
    pub fn scan_range_ctx(
        &self,
        lo: u64,
        hi: u64,
        ctx: &mut PoolCtx,
        f: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if lo > hi {
            return ControlFlow::Continue(());
        }
        self.scan_rec_ctx(self.root, self.height, lo, hi, ctx, f)
    }

    /// Largest key `<= hi` within `[lo, hi]` (the predecessor search linear
    /// quadtrees use for point location), on the shared read path.
    pub fn last_in_range_ctx(&self, lo: u64, hi: u64, ctx: &mut PoolCtx) -> Option<u64> {
        if lo > hi {
            return None;
        }
        self.last_rec_ctx(self.root, self.height, lo, hi, ctx)
    }

    /// Predecessor search fused with a scan of the run it lands in:
    /// finds `k = last_in_range_ctx(lo, hi)`, then visits every key of
    /// `[run_lo, run_hi] = run(k)` ascending, exactly as
    /// [`BTree::scan_range_ctx`] would. `run(k)` must contain `k`. When
    /// the run's bounds route to the predecessor's child at every level of
    /// its descent, that scan would re-read only the descent's own pages,
    /// so the run is read from the leaf in hand; otherwise the scan runs as
    /// a second descent. Either way the touched pages, the charges and the
    /// visited keys are those of the two separate calls. Returns `k`;
    /// nothing is scanned if there is no predecessor.
    pub fn last_then_scan_ctx(
        &self,
        lo: u64,
        hi: u64,
        run: impl Fn(u64) -> (u64, u64),
        ctx: &mut PoolCtx,
        f: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> Option<u64> {
        self.last_then_scan_inner(lo, hi, run, ctx, f)
            .map(|(k, _)| k)
    }

    /// [`BTree::last_then_scan_ctx`], also reporting whether the run was
    /// read from the predecessor's leaf (`true`) or by a second descent.
    fn last_then_scan_inner(
        &self,
        lo: u64,
        hi: u64,
        run: impl Fn(u64) -> (u64, u64),
        ctx: &mut PoolCtx,
        f: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> Option<(u64, bool)> {
        if lo > hi {
            return None;
        }
        let found = self.last_run_rec_ctx(self.root, self.height, lo, hi, &run, ctx)?;
        let (run_lo, run_hi) = found.run;
        debug_assert!(
            (run_lo..=run_hi).contains(&found.key),
            "run(k) must contain k"
        );
        match found.leaf {
            Some(leaf) => {
                // The run contains the predecessor, so its first key in
                // this leaf is found by stepping back from it (runs are a
                // few keys) instead of by a second search.
                let mut start = found.pos;
                while start > 0 && LeafView::key_at(leaf, start - 1) >= run_lo {
                    start -= 1;
                }
                let keys = LeafView::key_bytes(leaf, start, LeafView::count(leaf));
                let _ = lsdb_core::scan::scan_keys_le(keys, run_hi, f);
            }
            None => {
                let _ = self.scan_range_ctx(run_lo, run_hi, ctx, f);
            }
        }
        Some((found.key, found.leaf.is_some()))
    }

    /// [`BTree::last_rec_ctx`] that also computes the found key's run and
    /// keeps the leaf it was found in while the run routes to the same
    /// child as the descent at every level below `pid`.
    fn last_run_rec_ctx<'p>(
        &'p self,
        pid: PageId,
        level: u32,
        lo: u64,
        hi: u64,
        run: &impl Fn(u64) -> (u64, u64),
        ctx: &mut PoolCtx,
    ) -> Option<RunFound<'p>> {
        let buf = self.pool.read_page(pid, ctx);
        if level == 1 {
            let end = match LeafView::search(buf, hi) {
                Ok(i) => i + 1,
                Err(i) => i,
            };
            if end == 0 {
                return None;
            }
            let key = LeafView::key_at(buf, end - 1);
            return (key >= lo).then(|| RunFound {
                key,
                run: run(key),
                pos: end - 1,
                leaf: Some(buf),
            });
        }
        let mut i = InternalView::child_index_for(buf, hi);
        loop {
            let child = InternalView::child_at(buf, i);
            if let Some(mut found) = self.last_run_rec_ctx(child, level - 1, lo, hi, run, ctx) {
                let (run_lo, run_hi) = found.run;
                // `scan_rec_ctx` visits children `child_index_for(run_lo)`
                // to `child_index_for(run_hi)` here: just child `i`, or
                // more.
                if found.leaf.is_some()
                    && !(InternalView::routes_to(buf, run_lo, i)
                        && InternalView::routes_to(buf, run_hi, i))
                {
                    found.leaf = None;
                }
                return Some(found);
            }
            i = InternalView::child_before(buf, i, lo)?;
        }
    }

    fn scan_rec_ctx(
        &self,
        pid: PageId,
        level: u32,
        lo: u64,
        hi: u64,
        ctx: &mut PoolCtx,
        f: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Steady-state queries must not allocate: leaves are walked in
        // place over the borrowed page, and the recursion reads child ids
        // straight from the borrowed parent.
        let buf = self.pool.read_page(pid, ctx);
        if level == 1 {
            let start = LeafView::search(buf, lo).unwrap_or_else(|i| i);
            let count = LeafView::count(buf);
            return lsdb_core::scan::scan_keys_le(LeafView::key_bytes(buf, start, count), hi, f);
        }
        let mut i = InternalView::child_index_for(buf, lo);
        loop {
            let child = InternalView::child_at(buf, i);
            self.scan_rec_ctx(child, level - 1, lo, hi, ctx, f)?;
            let Some(next) = InternalView::child_after(buf, i, hi) else {
                return ControlFlow::Continue(());
            };
            i = next;
        }
    }

    fn last_rec_ctx(
        &self,
        pid: PageId,
        level: u32,
        lo: u64,
        hi: u64,
        ctx: &mut PoolCtx,
    ) -> Option<u64> {
        let buf = self.pool.read_page(pid, ctx);
        if level == 1 {
            let end = match LeafView::search(buf, hi) {
                Ok(i) => i + 1,
                Err(i) => i,
            };
            if end == 0 {
                return None;
            }
            let k = LeafView::key_at(buf, end - 1);
            return (k >= lo).then_some(k);
        }
        let mut i = InternalView::child_index_for(buf, hi);
        loop {
            let child = InternalView::child_at(buf, i);
            if let Some(k) = self.last_rec_ctx(child, level - 1, lo, hi, ctx) {
                return Some(k);
            }
            i = InternalView::child_before(buf, i, lo)?;
        }
    }

    fn last_rec(&mut self, pid: PageId, level: u32, lo: u64, hi: u64) -> Option<u64> {
        self.stats.node_visits += 1;
        if level == 1 {
            return self.pool.with_page(pid, |buf| {
                let count = LeafView::count(buf);
                // Index of the first key > hi; the answer precedes it.
                let end = match LeafView::search(buf, hi) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let _ = count;
                if end == 0 {
                    return None;
                }
                let k = LeafView::key_at(buf, end - 1);
                (k >= lo).then_some(k)
            });
        }
        let (start, end, children) = self.pool.with_page(pid, |buf| {
            let count = InternalView::count(buf);
            let start = InternalView::child_index_for(buf, lo);
            let end = InternalView::child_index_for(buf, hi).min(count);
            let children: Vec<PageId> = (start..=end)
                .map(|i| InternalView::child_at(buf, i))
                .collect();
            (start, end, children)
        });
        let _ = (start, end);
        // Scan candidate children from the right.
        for child in children.into_iter().rev() {
            if let Some(k) = self.last_rec(child, level - 1, lo, hi) {
                return Some(k);
            }
        }
        None
    }

    fn scan_rec(
        &mut self,
        pid: PageId,
        level: u32,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stats.node_visits += 1;
        if level == 1 {
            let keys = self.pool.with_page(pid, |buf| {
                let count = LeafView::count(buf);
                let start = LeafView::search(buf, lo).unwrap_or_else(|i| i);
                let mut keys = Vec::new();
                for i in start..count {
                    let k = LeafView::key_at(buf, i);
                    if k > hi {
                        break;
                    }
                    keys.push(k);
                }
                keys
            });
            for k in keys {
                f(k)?;
            }
            return ControlFlow::Continue(());
        }
        let children = self.pool.with_page(pid, |buf| {
            let count = InternalView::count(buf);
            let start = InternalView::child_index_for(buf, lo);
            let end = InternalView::child_index_for(buf, hi);
            (start..=end.min(count))
                .map(|i| InternalView::child_at(buf, i))
                .collect::<Vec<_>>()
        });
        for child in children {
            self.scan_rec(child, level - 1, lo, hi, f)?;
        }
        ControlFlow::Continue(())
    }

    fn insert_rec(&mut self, pid: PageId, key: u64, level: u32) -> Insert {
        self.stats.node_visits += 1;
        if level == 1 {
            return self.insert_leaf(pid, key);
        }
        let (idx, child) = self.pool.with_page(pid, |buf| {
            let idx = InternalView::child_index_for(buf, key);
            (idx, InternalView::child_at(buf, idx))
        });
        match self.insert_rec(child, key, level - 1) {
            Insert::Done(added) => Insert::Done(added),
            Insert::Split { sep, right } => {
                let count = self.pool.with_page_mut(pid, |buf| {
                    InternalView::insert_at(buf, idx, sep, right);
                    InternalView::count(buf)
                });
                if count <= self.internal_cap {
                    return Insert::Done(true);
                }
                self.split_internal(pid)
            }
        }
    }

    fn insert_leaf(&mut self, pid: PageId, key: u64) -> Insert {
        enum Outcome {
            Present,
            Inserted,
            NeedsSplit(Vec<u64>),
        }
        let outcome = self
            .pool
            .with_page_mut(pid, |buf| match LeafView::search(buf, key) {
                Ok(_) => Outcome::Present,
                Err(at) => {
                    if LeafView::count(buf) < LeafView::capacity(buf.len()) {
                        LeafView::insert_at(buf, at, key);
                        Outcome::Inserted
                    } else {
                        let mut keys = LeafView::keys(buf);
                        keys.insert(at, key);
                        Outcome::NeedsSplit(keys)
                    }
                }
            });
        match outcome {
            Outcome::Present => Insert::Done(false),
            Outcome::Inserted => Insert::Done(true),
            Outcome::NeedsSplit(keys) => {
                let mid = keys.len() / 2;
                let sep = keys[mid];
                let right = self.pool.allocate();
                self.pool.with_page_mut(pid, |buf| {
                    LeafView::init(buf);
                    LeafView::write_keys(buf, &keys[..mid]);
                });
                self.pool.with_page_mut(right, |buf| {
                    LeafView::init(buf);
                    LeafView::write_keys(buf, &keys[mid..]);
                });
                Insert::Split { sep, right }
            }
        }
    }

    fn split_internal(&mut self, pid: PageId) -> Insert {
        let (seps, children) = self.pool.with_page(pid, |buf| {
            (InternalView::seps(buf), InternalView::children(buf))
        });
        let mid = seps.len() / 2;
        let sep_up = seps[mid];
        let right = self.pool.allocate();
        self.pool.with_page_mut(pid, |buf| {
            InternalView::init(buf, children[0]);
            InternalView::write_pairs(buf, &seps[..mid], &children[1..=mid]);
        });
        self.pool.with_page_mut(right, |buf| {
            InternalView::init(buf, children[mid + 1]);
            InternalView::write_pairs(buf, &seps[mid + 1..], &children[mid + 2..]);
        });
        Insert::Split { sep: sep_up, right }
    }

    fn remove_rec(&mut self, pid: PageId, key: u64, level: u32) -> bool {
        self.stats.node_visits += 1;
        if level == 1 {
            return self
                .pool
                .with_page_mut(pid, |buf| match LeafView::search(buf, key) {
                    Ok(at) => {
                        LeafView::remove_at(buf, at);
                        true
                    }
                    Err(_) => false,
                });
        }
        let (idx, child) = self.pool.with_page(pid, |buf| {
            let idx = InternalView::child_index_for(buf, key);
            (idx, InternalView::child_at(buf, idx))
        });
        let removed = self.remove_rec(child, key, level - 1);
        if removed {
            self.fix_underflow(pid, idx, level);
        }
        removed
    }

    /// After a deletion in `child_idx` of internal node `pid` (at `level`),
    /// rebalance if the child dropped below minimum occupancy.
    fn fix_underflow(&mut self, pid: PageId, child_idx: usize, level: u32) {
        let child_level = level - 1;
        let child = self
            .pool
            .with_page(pid, |buf| InternalView::child_at(buf, child_idx));
        let child_count = self.node_count(child, child_level);
        let min = if child_level == 1 {
            self.leaf_cap / 2
        } else {
            self.internal_cap / 2
        };
        if child_count >= min {
            return;
        }
        let parent_count = self.pool.with_page(pid, InternalView::count);
        // Prefer borrowing from / merging with the left sibling; fall back
        // to the right one when the child is leftmost.
        let (left_idx, right_idx) = if child_idx > 0 {
            (child_idx - 1, child_idx)
        } else {
            (child_idx, child_idx + 1)
        };
        debug_assert!(right_idx <= parent_count);
        let (left, right, sep) = self.pool.with_page(pid, |buf| {
            (
                InternalView::child_at(buf, left_idx),
                InternalView::child_at(buf, right_idx),
                InternalView::sep_at(buf, left_idx),
            )
        });
        let donor = if left == child { right } else { left };
        let donor_count = self.node_count(donor, child_level);
        if donor_count > min {
            self.rotate(pid, left_idx, left, right, sep, child_level, donor == left);
        } else {
            self.merge(pid, left_idx, left, right, sep, child_level);
        }
    }

    fn node_count(&mut self, pid: PageId, level: u32) -> usize {
        self.pool.with_page(pid, |buf| {
            if level == 1 {
                LeafView::count(buf)
            } else {
                InternalView::count(buf)
            }
        })
    }

    /// Move one entry from the donor sibling through the parent separator.
    #[allow(clippy::too_many_arguments)]
    fn rotate(
        &mut self,
        parent: PageId,
        sep_idx: usize,
        left: PageId,
        right: PageId,
        sep: u64,
        level: u32,
        donor_is_left: bool,
    ) {
        let new_sep;
        if level == 1 {
            if donor_is_left {
                let moved = self.pool.with_page_mut(left, |buf| {
                    let c = LeafView::count(buf);
                    let k = LeafView::key_at(buf, c - 1);
                    LeafView::remove_at(buf, c - 1);
                    k
                });
                self.pool
                    .with_page_mut(right, |buf| LeafView::insert_at(buf, 0, moved));
                new_sep = moved;
            } else {
                let moved = self.pool.with_page_mut(right, |buf| {
                    let k = LeafView::key_at(buf, 0);
                    LeafView::remove_at(buf, 0);
                    k
                });
                self.pool.with_page_mut(left, |buf| {
                    let c = LeafView::count(buf);
                    LeafView::insert_at(buf, c, moved)
                });
                new_sep = self.pool.with_page(right, |buf| LeafView::key_at(buf, 0));
            }
        } else if donor_is_left {
            // Donor's last (sep, child) rotates: donor sep goes up, parent
            // sep comes down in front of the receiver, donor's last child
            // becomes the receiver's first child.
            let (moved_sep, moved_child) = self.pool.with_page_mut(left, |buf| {
                let c = InternalView::count(buf);
                let s = InternalView::sep_at(buf, c - 1);
                let ch = InternalView::child_at(buf, c);
                InternalView::truncate(buf, c - 1);
                (s, ch)
            });
            self.pool.with_page_mut(right, |buf| {
                InternalView::push_front(buf, moved_child, sep);
            });
            new_sep = moved_sep;
        } else {
            let (moved_sep, moved_child) = self.pool.with_page_mut(right, |buf| {
                let s = InternalView::sep_at(buf, 0);
                let ch = InternalView::child_at(buf, 0);
                InternalView::pop_front(buf);
                (s, ch)
            });
            self.pool.with_page_mut(left, |buf| {
                let c = InternalView::count(buf);
                InternalView::insert_at(buf, c, sep, moved_child);
            });
            new_sep = moved_sep;
        }
        self.pool
            .with_page_mut(parent, |buf| InternalView::set_sep(buf, sep_idx, new_sep));
    }

    /// Merge `right` into `left`, removing the separator from the parent.
    fn merge(
        &mut self,
        parent: PageId,
        sep_idx: usize,
        left: PageId,
        right: PageId,
        sep: u64,
        level: u32,
    ) {
        if level == 1 {
            let right_keys = self.pool.with_page(right, LeafView::keys);
            self.pool.with_page_mut(left, |buf| {
                // `c` is a write cursor, not a pure counter: insert_at
                // appends each key at the current end of the leaf.
                let mut c = LeafView::count(buf);
                #[allow(clippy::explicit_counter_loop)]
                for k in right_keys {
                    LeafView::insert_at(buf, c, k);
                    c += 1;
                }
            });
        } else {
            let (seps, children) = self.pool.with_page(right, |buf| {
                (InternalView::seps(buf), InternalView::children(buf))
            });
            self.pool.with_page_mut(left, |buf| {
                let mut c = InternalView::count(buf);
                InternalView::insert_at(buf, c, sep, children[0]);
                c += 1;
                for (s, ch) in seps.iter().zip(children[1..].iter()) {
                    InternalView::insert_at(buf, c, *s, *ch);
                    c += 1;
                }
            });
        }
        self.pool.free(right);
        self.pool.with_page_mut(parent, |buf| {
            InternalView::remove_pair_at(buf, sep_idx);
        });
    }

    /// Walk the whole tree validating structural invariants; returns the
    /// number of keys seen. Test/debug aid — O(n), touches every page.
    pub fn check_invariants(&mut self) -> u64 {
        let root = self.root;
        let height = self.height;
        let n = self.check_rec(root, height, None, None, true);
        assert_eq!(n, self.len, "len counter diverged from tree contents");
        n
    }

    fn check_rec(
        &mut self,
        pid: PageId,
        level: u32,
        lo: Option<u64>,
        hi: Option<u64>,
        is_root: bool,
    ) -> u64 {
        if level == 1 {
            let keys = self.pool.with_page(pid, |buf| {
                assert_eq!(LeafView::tag(buf), Tag::Leaf, "expected leaf at level 1");
                LeafView::keys(buf)
            });
            if !is_root {
                assert!(
                    keys.len() >= self.leaf_cap / 2,
                    "leaf underflow: {}",
                    keys.len()
                );
            }
            assert!(keys.len() <= self.leaf_cap);
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "leaf keys not strictly sorted");
            }
            for &k in &keys {
                if let Some(lo) = lo {
                    assert!(k >= lo, "key below subtree bound");
                }
                if let Some(hi) = hi {
                    assert!(k < hi, "key above subtree bound");
                }
            }
            return keys.len() as u64;
        }
        let (seps, children) = self.pool.with_page(pid, |buf| {
            assert_eq!(InternalView::tag(buf), Tag::Internal);
            (InternalView::seps(buf), InternalView::children(buf))
        });
        if !is_root {
            assert!(seps.len() >= self.internal_cap / 2, "internal underflow");
        } else {
            assert!(!seps.is_empty(), "internal root must have >= 2 children");
        }
        assert!(seps.len() <= self.internal_cap);
        for w in seps.windows(2) {
            assert!(w[0] < w[1], "separators not strictly sorted");
        }
        let mut total = 0;
        for (i, &child) in children.iter().enumerate() {
            let clo = if i == 0 { lo } else { Some(seps[i - 1]) };
            let chi = if i == seps.len() { hi } else { Some(seps[i]) };
            total += self.check_rec(child, level - 1, clo, chi, false);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BTree {
        // 64-byte pages: leaf capacity 7, internal capacity 4 — forces deep
        // trees and frequent splits/merges at small n.
        BTree::new(BufferPool::new(64, 8))
    }

    /// The keys of `[lo, hi]`, read through [`BTree::scan_range_ctx`].
    fn keys_ctx(t: &BTree, lo: u64, hi: u64, ctx: &mut PoolCtx) -> Vec<u64> {
        let mut out = Vec::new();
        let _ = t.scan_range_ctx(lo, hi, ctx, &mut |k| {
            out.push(k);
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn empty_tree() {
        let mut t = tiny();
        assert!(t.is_empty());
        assert!(!t.contains(42));
        assert!(!t.remove(42));
        assert_eq!(t.collect_range(0, u64::MAX), vec![]);
        t.check_invariants();
    }

    #[test]
    fn insert_and_contains() {
        let mut t = tiny();
        assert!(t.insert(5));
        assert!(!t.insert(5), "duplicate rejected");
        assert!(t.insert(3));
        assert!(t.insert(9));
        assert_eq!(t.len(), 3);
        assert!(t.contains(3) && t.contains(5) && t.contains(9));
        assert!(!t.contains(4));
        t.check_invariants();
    }

    #[test]
    fn ascending_bulk_insert_splits() {
        let mut t = tiny();
        for k in 0..500u64 {
            assert!(t.insert(k));
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3, "tiny pages must force a deep tree");
        assert_eq!(t.collect_range(0, u64::MAX), (0..500).collect::<Vec<_>>());
        t.check_invariants();
    }

    #[test]
    fn descending_and_shuffled_inserts() {
        let mut t = tiny();
        for k in (0..300u64).rev() {
            t.insert(k);
        }
        t.check_invariants();
        let mut t2 = tiny();
        // Deterministic pseudo-shuffle.
        for i in 0..300u64 {
            t2.insert((i * 7919) % 300);
        }
        assert_eq!(t2.len(), 300);
        assert_eq!(t2.collect_range(0, 299), (0..300).collect::<Vec<_>>());
        t2.check_invariants();
    }

    #[test]
    fn range_scans() {
        let mut t = tiny();
        for k in (0..100u64).map(|i| i * 10) {
            t.insert(k);
        }
        assert_eq!(t.collect_range(95, 130), vec![100, 110, 120, 130]);
        assert_eq!(t.collect_range(101, 109), vec![]);
        assert_eq!(t.collect_range(0, 0), vec![0]);
        assert_eq!(t.collect_range(991, u64::MAX), vec![]);
        assert_eq!(t.collect_range(0, 990).len(), 100);
        assert_eq!(t.first_in_range(55, 1000), Some(60));
        assert_eq!(t.first_in_range(991, u64::MAX), None);
        // Inverted range is empty.
        assert_eq!(t.collect_range(50, 10), vec![]);
    }

    #[test]
    fn scan_early_exit() {
        let mut t = tiny();
        for k in 0..200u64 {
            t.insert(k);
        }
        let mut seen = Vec::new();
        let flow = t.scan_range(0, u64::MAX, &mut |k| {
            seen.push(k);
            if seen.len() == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn remove_everything_both_orders() {
        for ascending in [true, false] {
            let mut t = tiny();
            let n = 400u64;
            for k in 0..n {
                t.insert(k);
            }
            let order: Vec<u64> = if ascending {
                (0..n).collect()
            } else {
                (0..n).rev().collect()
            };
            for (i, k) in order.iter().enumerate() {
                assert!(t.remove(*k), "removing {k}");
                if i % 37 == 0 {
                    t.check_invariants();
                }
            }
            assert!(t.is_empty());
            assert_eq!(t.height(), 1, "tree collapsed back to a single leaf");
            t.check_invariants();
        }
    }

    #[test]
    fn interleaved_insert_remove() {
        let mut t = tiny();
        for round in 0..10u64 {
            for k in 0..100 {
                t.insert(round * 1000 + k);
            }
            for k in 0..50 {
                assert!(t.remove(round * 1000 + k * 2));
            }
            t.check_invariants();
        }
        assert_eq!(t.len(), 10 * 50);
    }

    #[test]
    fn height_grows_and_shrinks() {
        let mut t = tiny();
        for k in 0..1000u64 {
            t.insert(k);
        }
        let h = t.height();
        assert!(h >= 3);
        for k in 0..1000u64 {
            t.remove(k);
        }
        assert_eq!(t.height(), 1);
        // Pages from removed nodes are recycled.
        for k in 0..1000u64 {
            t.insert(k);
        }
        assert_eq!(t.height(), h, "rebuild reaches the same height");
        t.check_invariants();
    }

    #[test]
    fn disk_stats_reflect_pool_misses() {
        // A pool big enough to hold everything: after warm-up, queries are
        // free; with a tiny pool, they are not.
        let mut big = BTree::new(BufferPool::new(64, 1024));
        let mut small = BTree::new(BufferPool::new(64, 2));
        for k in 0..500u64 {
            big.insert(k);
            small.insert(k);
        }
        big.pool_mut().reset_stats();
        small.pool_mut().reset_stats();
        for k in (0..500u64).step_by(17) {
            assert!(big.contains(k));
            assert!(small.contains(k));
        }
        assert_eq!(big.pool().stats().reads, 0, "fully cached tree");
        assert!(small.pool().stats().reads > 0, "thrashing pool must fault");
    }

    #[test]
    fn u64_extremes() {
        let mut t = tiny();
        assert!(t.insert(0));
        assert!(t.insert(u64::MAX));
        assert!(t.insert(u64::MAX - 1));
        assert!(t.contains(u64::MAX));
        assert_eq!(
            t.collect_range(u64::MAX - 1, u64::MAX),
            vec![u64::MAX - 1, u64::MAX]
        );
        assert!(t.remove(u64::MAX));
        assert!(!t.contains(u64::MAX));
    }

    #[test]
    fn ctx_reads_agree_with_exclusive_reads() {
        let mut t = tiny();
        for k in (0..300u64).map(|i| i * 3) {
            t.insert(k);
        }
        let mut ctx = PoolCtx::new();
        assert_eq!(keys_ctx(&t, 10, 200, &mut ctx), t.collect_range(10, 200));
        assert_eq!(keys_ctx(&t, 0, u64::MAX, &mut ctx).len(), 300);
        assert_eq!(
            t.last_in_range_ctx(100, 200, &mut ctx),
            t.last_in_range(100, 200)
        );
        assert_eq!(t.last_in_range_ctx(1, 2, &mut ctx), None);
        assert_eq!(keys_ctx(&t, 50, 10, &mut ctx), vec![]);
    }

    #[test]
    fn ctx_reads_charge_the_context_not_the_pool() {
        // Pool of 2 frames over a ~500-key tree: almost nothing resident.
        let mut t = BTree::new(BufferPool::new(64, 2));
        for k in 0..500u64 {
            t.insert(k);
        }
        t.pool_mut().clear();
        t.pool_mut().reset_stats();
        let mut ctx = PoolCtx::new();
        assert_eq!(t.last_in_range_ctx(250, 250, &mut ctx), Some(250));
        assert_eq!(
            ctx.stats.reads as u32,
            t.height(),
            "cold point lookup faults once per level"
        );
        assert_eq!(
            t.pool().stats().reads,
            0,
            "pool counters untouched by ctx reads"
        );
        // Re-walking the same path in the same query is free.
        let before = ctx.stats.reads;
        assert_eq!(t.last_in_range_ctx(250, 250, &mut ctx), Some(250));
        assert_eq!(ctx.stats.reads, before);
    }

    /// The fused predecessor-plus-run read against the two calls it
    /// replaces, on random trees of runs (`key >> 16` names the run) at
    /// small page sizes: runs straddle leaves, and deletions leave
    /// separators between a run's last key and the probe.
    #[test]
    fn fused_probe_matches_last_then_scan() {
        use lsdb_rng::StdRng;
        let run = |k: u64| (k & !0xFFFF, k | 0xFFFF);
        let (mut fused, mut fallback) = (0, 0);
        for (seed, page) in [(1u64, 64usize), (2, 64), (3, 96), (4, 128)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = BTree::new(BufferPool::new(page, 6));
            for r in 0..300u64 {
                let keys = rng.gen_range(1..=12u64);
                for j in 0..keys {
                    t.insert(((r * 4) << 16) | (j * 7));
                }
            }
            let keys = t.collect_range(0, u64::MAX);
            for &k in &keys {
                if rng.gen_bool(0.3) {
                    t.remove(k);
                }
            }
            t.check_invariants();
            let keys = t.collect_range(0, u64::MAX);
            for cold in [false, true] {
                if cold {
                    t.pool_mut().clear();
                }
                for _ in 0..400 {
                    let k = keys[rng.gen_range(0..keys.len())];
                    let hi = match rng.gen_range(0..4u32) {
                        0 => k,
                        1 => k | 0xFFFF,
                        2 => (k | 0xFFFF) + rng.gen_range(1..0x40000u64),
                        _ => rng.gen_range(0..=((300u64 * 4) << 16)),
                    };
                    let lo = match rng.gen_range(0..4u32) {
                        0 => hi.saturating_sub(rng.gen_range(0..0x40000u64)),
                        1 => hi + 1,
                        _ => 0,
                    };
                    let mut seq = PoolCtx::new();
                    let mut seq_keys = Vec::new();
                    let seq_k = t.last_in_range_ctx(lo, hi, &mut seq);
                    if let Some(k) = seq_k {
                        let (rlo, rhi) = run(k);
                        let _ = t.scan_range_ctx(rlo, rhi, &mut seq, &mut |k| {
                            seq_keys.push(k);
                            ControlFlow::Continue(())
                        });
                    }
                    let mut one = PoolCtx::new();
                    let mut one_keys = Vec::new();
                    let got = t.last_then_scan_inner(lo, hi, run, &mut one, &mut |k| {
                        one_keys.push(k);
                        ControlFlow::Continue(())
                    });
                    assert_eq!(got.map(|(k, _)| k), seq_k, "lo {lo:#x} hi {hi:#x}");
                    assert_eq!(one_keys, seq_keys, "lo {lo:#x} hi {hi:#x}");
                    assert_eq!(one.pages_touched(), seq.pages_touched());
                    assert_eq!(one.stats, seq.stats);
                    match got {
                        Some((_, true)) => fused += 1,
                        Some((_, false)) => fallback += 1,
                        None => {}
                    }
                }
            }
        }
        assert!(
            fused > 0 && fallback > 0,
            "fused {fused}, fallback {fallback}"
        );
    }

    #[test]
    fn concurrent_ctx_scans() {
        let mut t = BTree::new(BufferPool::new(64, 4));
        for k in 0..400u64 {
            t.insert(k);
        }
        t.pool_mut().clear();
        let t = &t;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    scope.spawn(move || {
                        let mut ctx = PoolCtx::new();
                        let lo = i * 50;
                        let keys = keys_ctx(t, lo, lo + 99, &mut ctx);
                        assert_eq!(keys, (lo..=lo + 99).collect::<Vec<_>>());
                        assert!(ctx.stats.reads > 0, "cold scan must fault");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn node_visit_stats_accumulate() {
        let mut t = tiny();
        for k in 0..200u64 {
            t.insert(k);
        }
        t.reset_stats();
        t.contains(100);
        let v = t.stats().node_visits;
        assert_eq!(v as u32, t.height(), "one visit per level on point lookup");
    }
}
