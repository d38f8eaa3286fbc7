//! Raw on-page node layouts.
//!
//! All accessors operate on the raw page buffer so that a node is never
//! deserialized wholesale on the hot search path; whole-node vectors are
//! materialized only for splits and merges.

const HDR: usize = 8;
const LEAF_ENTRY: usize = 8;
const INT_ENTRY: usize = 12; // (sep: u64, child: u32)
const INT_CHILD0: usize = 8;
const INT_PAIRS: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tag {
    Leaf,
    Internal,
}

fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Branch-free lower bound over the `count` ascending keys read by `key`:
/// the number of leading keys for which `before` holds (`before` must be
/// true on a prefix and false after it, as `partition_point` requires).
/// Each halving step picks the new base with a conditional move, so the
/// search costs `ceil(log2(count + 1))` key reads and no mispredicted
/// branches.
#[inline(always)]
fn lower_bound(count: usize, key: impl Fn(usize) -> u64, before: impl Fn(u64) -> bool) -> usize {
    if count == 0 {
        return 0;
    }
    let mut base = 0;
    let mut size = count;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = std::hint::select_unpredictable(before(key(mid)), mid, base);
        size -= half;
    }
    base + usize::from(before(key(base)))
}

/// Accessors for leaf pages: a sorted array of `u64` keys.
pub struct LeafView;

impl LeafView {
    pub fn capacity(page_size: usize) -> usize {
        (page_size - HDR) / LEAF_ENTRY
    }

    pub fn init(buf: &mut [u8]) {
        buf[..HDR].fill(0);
        buf[0] = 0; // Tag::Leaf
    }

    pub fn tag(buf: &[u8]) -> Tag {
        if buf[0] == 0 {
            Tag::Leaf
        } else {
            Tag::Internal
        }
    }

    pub fn count(buf: &[u8]) -> usize {
        get_u16(buf, 2) as usize
    }

    fn set_count(buf: &mut [u8], c: usize) {
        put_u16(buf, 2, c as u16);
    }

    pub fn key_at(buf: &[u8], i: usize) -> u64 {
        debug_assert!(i < Self::count(buf));
        get_u64(buf, HDR + i * LEAF_ENTRY)
    }

    /// The raw bytes of the key region `start..count` — a packed array of
    /// ascending `u64` LE keys, handed to the shared scan kernel so range
    /// scans walk the page in place instead of re-decoding per index.
    pub fn key_bytes(buf: &[u8], start: usize, count: usize) -> &[u8] {
        debug_assert!(start <= count && count <= Self::count(buf));
        &buf[HDR + start * LEAF_ENTRY..HDR + count * LEAF_ENTRY]
    }

    /// Binary search: `Ok(i)` if `key` is at index `i`, else `Err(i)` with
    /// the insertion point (a branch-free lower bound, then one compare).
    pub fn search(buf: &[u8], key: u64) -> Result<usize, usize> {
        let count = Self::count(buf);
        let key_at = |i: usize| get_u64(buf, HDR + i * LEAF_ENTRY);
        let i = lower_bound(count, key_at, |k| k < key);
        if i < count && key_at(i) == key {
            Ok(i)
        } else {
            Err(i)
        }
    }

    pub fn insert_at(buf: &mut [u8], at: usize, key: u64) {
        let c = Self::count(buf);
        debug_assert!(at <= c && c < Self::capacity(buf.len()));
        let start = HDR + at * LEAF_ENTRY;
        let end = HDR + c * LEAF_ENTRY;
        buf.copy_within(start..end, start + LEAF_ENTRY);
        put_u64(buf, start, key);
        Self::set_count(buf, c + 1);
    }

    pub fn remove_at(buf: &mut [u8], at: usize) {
        let c = Self::count(buf);
        debug_assert!(at < c);
        let start = HDR + at * LEAF_ENTRY;
        let end = HDR + c * LEAF_ENTRY;
        buf.copy_within(start + LEAF_ENTRY..end, start);
        Self::set_count(buf, c - 1);
    }

    pub fn keys(buf: &[u8]) -> Vec<u64> {
        (0..Self::count(buf))
            .map(|i| Self::key_at(buf, i))
            .collect()
    }

    pub fn write_keys(buf: &mut [u8], keys: &[u64]) {
        debug_assert!(keys.len() <= Self::capacity(buf.len()));
        for (i, &k) in keys.iter().enumerate() {
            put_u64(buf, HDR + i * LEAF_ENTRY, k);
        }
        Self::set_count(buf, keys.len());
    }
}

/// Accessors for internal pages: `child[0]` then `count` pairs
/// `(sep, child)`; `sep[i]` separates `child[i]` (keys `< sep`) from
/// `child[i+1]` (keys `>= sep`).
pub struct InternalView;

impl InternalView {
    /// Maximum separator count. One physical entry slot is held back as a
    /// transient overflow slot: inserts land in the page first and the
    /// split happens after, so the page must fit `capacity + 1` pairs.
    pub fn capacity(page_size: usize) -> usize {
        (page_size - INT_PAIRS) / INT_ENTRY - 1
    }

    pub fn init(buf: &mut [u8], child0: lsdb_pager::PageId) {
        buf[..HDR].fill(0);
        buf[0] = 1; // Tag::Internal
        put_u32(buf, INT_CHILD0, child0.0);
    }

    pub fn tag(buf: &[u8]) -> Tag {
        LeafView::tag(buf)
    }

    /// Number of separator keys (children = count + 1).
    pub fn count(buf: &[u8]) -> usize {
        get_u16(buf, 2) as usize
    }

    fn set_count(buf: &mut [u8], c: usize) {
        put_u16(buf, 2, c as u16);
    }

    pub fn sep_at(buf: &[u8], i: usize) -> u64 {
        debug_assert!(i < Self::count(buf));
        get_u64(buf, INT_PAIRS + i * INT_ENTRY)
    }

    pub fn set_sep(buf: &mut [u8], i: usize, sep: u64) {
        debug_assert!(i < Self::count(buf));
        put_u64(buf, INT_PAIRS + i * INT_ENTRY, sep);
    }

    pub fn child_at(buf: &[u8], i: usize) -> lsdb_pager::PageId {
        debug_assert!(i <= Self::count(buf));
        if i == 0 {
            lsdb_pager::PageId(get_u32(buf, INT_CHILD0))
        } else {
            lsdb_pager::PageId(get_u32(buf, INT_PAIRS + (i - 1) * INT_ENTRY + 8))
        }
    }

    /// Index of the child whose subtree may contain `key`:
    /// the number of separators `<= key` (a branch-free lower bound).
    pub fn child_index_for(buf: &[u8], key: u64) -> usize {
        lower_bound(
            Self::count(buf),
            |i| get_u64(buf, INT_PAIRS + i * INT_ENTRY),
            |sep| sep <= key,
        )
    }

    /// Whether `key` routes to child `i`, i.e.
    /// `child_index_for(buf, key) == i`, read off the two separators
    /// around child `i` instead of a search.
    pub fn routes_to(buf: &[u8], key: u64, i: usize) -> bool {
        let count = Self::count(buf);
        debug_assert!(i <= count);
        (i == 0 || Self::sep_at(buf, i - 1) <= key) && (i == count || key < Self::sep_at(buf, i))
    }

    /// The child a descending walk over `[lo, ..]` visits after child
    /// `i`: child `i - 1`, if it can hold a key `>= lo` (its keys lie
    /// below separator `i - 1`). Walking from `child_index_for(hi)` this
    /// way visits exactly the children `child_index_for(lo)..=` it, with
    /// one separator read per step instead of a search for `lo`.
    pub fn child_before(buf: &[u8], i: usize, lo: u64) -> Option<usize> {
        (i > 0 && Self::sep_at(buf, i - 1) > lo).then(|| i - 1)
    }

    /// The child an ascending walk over `[.., hi]` visits after child
    /// `i`: child `i + 1`, if it can hold a key `<= hi` (its keys start at
    /// separator `i`). Walking from `child_index_for(lo)` this way visits
    /// exactly the children up to `child_index_for(hi)`, with one
    /// separator read per step instead of a search for `hi`.
    pub fn child_after(buf: &[u8], i: usize, hi: u64) -> Option<usize> {
        (i < Self::count(buf) && Self::sep_at(buf, i) <= hi).then_some(i + 1)
    }

    pub fn child_for(buf: &[u8], key: u64) -> lsdb_pager::PageId {
        Self::child_at(buf, Self::child_index_for(buf, key))
    }

    /// Insert `(sep, child)` so that `sep` lands at separator index `at`
    /// and `child` at child index `at + 1`.
    pub fn insert_at(buf: &mut [u8], at: usize, sep: u64, child: lsdb_pager::PageId) {
        let c = Self::count(buf);
        debug_assert!(at <= c, "insert_at {at} > count {c}");
        let start = INT_PAIRS + at * INT_ENTRY;
        let end = INT_PAIRS + c * INT_ENTRY;
        buf.copy_within(start..end, start + INT_ENTRY);
        put_u64(buf, start, sep);
        put_u32(buf, start + 8, child.0);
        Self::set_count(buf, c + 1);
    }

    /// Remove separator `at` and child `at + 1`.
    pub fn remove_pair_at(buf: &mut [u8], at: usize) {
        let c = Self::count(buf);
        debug_assert!(at < c);
        let start = INT_PAIRS + at * INT_ENTRY;
        let end = INT_PAIRS + c * INT_ENTRY;
        buf.copy_within(start + INT_ENTRY..end, start);
        Self::set_count(buf, c - 1);
    }

    /// Drop trailing pairs so that `new_count` separators remain.
    pub fn truncate(buf: &mut [u8], new_count: usize) {
        debug_assert!(new_count <= Self::count(buf));
        Self::set_count(buf, new_count);
    }

    /// Prepend: `new_child0` becomes child 0 and the old child 0 is pushed
    /// into pair position 0 behind separator `sep`.
    pub fn push_front(buf: &mut [u8], new_child0: lsdb_pager::PageId, sep: u64) {
        let old_child0 = Self::child_at(buf, 0);
        Self::insert_at(buf, 0, sep, old_child0);
        put_u32(buf, INT_CHILD0, new_child0.0);
    }

    /// Remove child 0 and separator 0; child 1 becomes the new child 0.
    pub fn pop_front(buf: &mut [u8]) {
        let new_child0 = Self::child_at(buf, 1);
        Self::remove_pair_at(buf, 0);
        put_u32(buf, INT_CHILD0, new_child0.0);
    }

    pub fn seps(buf: &[u8]) -> Vec<u64> {
        (0..Self::count(buf))
            .map(|i| Self::sep_at(buf, i))
            .collect()
    }

    /// All `count + 1` children.
    pub fn children(buf: &[u8]) -> Vec<lsdb_pager::PageId> {
        (0..=Self::count(buf))
            .map(|i| Self::child_at(buf, i))
            .collect()
    }

    /// Overwrite the pair region: `seps[i]` paired with `tail_children[i]`
    /// (the children at indices `1..`). Child 0 must already be set via
    /// [`InternalView::init`].
    pub fn write_pairs(buf: &mut [u8], seps: &[u64], tail_children: &[lsdb_pager::PageId]) {
        debug_assert_eq!(seps.len(), tail_children.len());
        debug_assert!(seps.len() <= Self::capacity(buf.len()));
        for (i, (&s, &c)) in seps.iter().zip(tail_children).enumerate() {
            put_u64(buf, INT_PAIRS + i * INT_ENTRY, s);
            put_u32(buf, INT_PAIRS + i * INT_ENTRY + 8, c.0);
        }
        Self::set_count(buf, seps.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_pager::PageId;

    #[test]
    fn leaf_capacity_matches_paper_scale() {
        // 1 KB pages hold on the order of 120 8-byte tuples (we fit 127;
        // the paper reserves a little more header space).
        assert_eq!(LeafView::capacity(1024), 127);
        assert_eq!(LeafView::capacity(64), 7);
    }

    #[test]
    fn leaf_insert_remove_shift() {
        let mut buf = vec![0u8; 64];
        LeafView::init(&mut buf);
        LeafView::insert_at(&mut buf, 0, 10);
        LeafView::insert_at(&mut buf, 1, 30);
        LeafView::insert_at(&mut buf, 1, 20);
        assert_eq!(LeafView::keys(&buf), vec![10, 20, 30]);
        LeafView::remove_at(&mut buf, 1);
        assert_eq!(LeafView::keys(&buf), vec![10, 30]);
    }

    #[test]
    fn leaf_search() {
        let mut buf = vec![0u8; 128];
        LeafView::init(&mut buf);
        LeafView::write_keys(&mut buf, &[2, 4, 6, 8]);
        assert_eq!(LeafView::search(&buf, 4), Ok(1));
        assert_eq!(LeafView::search(&buf, 5), Err(2));
        assert_eq!(LeafView::search(&buf, 1), Err(0));
        assert_eq!(LeafView::search(&buf, 9), Err(4));
    }

    #[test]
    fn internal_child_routing() {
        let mut buf = vec![0u8; 128];
        InternalView::init(&mut buf, PageId(100));
        InternalView::insert_at(&mut buf, 0, 10, PageId(101));
        InternalView::insert_at(&mut buf, 1, 20, PageId(102));
        // keys < 10 -> child 0; 10..20 -> child 1; >= 20 -> child 2.
        assert_eq!(InternalView::child_for(&buf, 5), PageId(100));
        assert_eq!(InternalView::child_for(&buf, 10), PageId(101));
        assert_eq!(InternalView::child_for(&buf, 19), PageId(101));
        assert_eq!(InternalView::child_for(&buf, 20), PageId(102));
        assert_eq!(InternalView::child_for(&buf, u64::MAX), PageId(102));
    }

    /// A leaf holding `keys` (ascending) in a page of `page` bytes.
    fn leaf(page: usize, keys: &[u64]) -> Vec<u8> {
        let mut buf = vec![0u8; page];
        LeafView::init(&mut buf);
        LeafView::write_keys(&mut buf, keys);
        buf
    }

    /// An internal page holding separators `seps` (ascending).
    fn internal(page: usize, seps: &[u64]) -> Vec<u8> {
        let mut buf = vec![0u8; page];
        InternalView::init(&mut buf, PageId(0));
        let children: Vec<PageId> = (1..=seps.len() as u32).map(PageId).collect();
        InternalView::write_pairs(&mut buf, seps, &children);
        buf
    }

    /// Random ascending distinct keys: `n` of them, spaced so that probes
    /// land on, between, below and above them.
    fn sorted_keys(rng: &mut lsdb_rng::StdRng, n: usize) -> Vec<u64> {
        let mut keys = Vec::with_capacity(n);
        let mut k = rng.gen_range(0..4u64);
        for _ in 0..n {
            keys.push(k);
            k += rng.gen_range(1..6u64);
        }
        keys
    }

    /// Probes for a page of `keys`: every key, its neighbours, and the
    /// extremes of the key space.
    fn probes(keys: &[u64]) -> Vec<u64> {
        let mut out = vec![0, 1, u64::MAX - 1, u64::MAX];
        for &k in keys {
            out.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        out
    }

    #[test]
    fn branch_free_searches_equal_partition_point() {
        let mut rng = lsdb_rng::StdRng::seed_from_u64(0xB7EE);
        for page in [64usize, 128, 1024] {
            let leaf_cap = LeafView::capacity(page);
            let int_cap = InternalView::capacity(page);
            // Empty, one-key and full pages, plus random fills.
            let mut sizes = vec![0, 1, 2, leaf_cap];
            sizes.extend((0..40).map(|_| rng.gen_range(0..=leaf_cap)));
            for n in sizes {
                let keys = sorted_keys(&mut rng, n);
                let buf = leaf(page, &keys);
                for key in probes(&keys) {
                    let expect = match keys.partition_point(|&k| k < key) {
                        i if keys.get(i) == Some(&key) => Ok(i),
                        i => Err(i),
                    };
                    assert_eq!(LeafView::search(&buf, key), expect, "leaf n={n} key={key}");
                }
            }
            let mut sizes = vec![0, 1, 2, int_cap];
            sizes.extend((0..40).map(|_| rng.gen_range(0..=int_cap)));
            for n in sizes {
                let seps = sorted_keys(&mut rng, n);
                let buf = internal(page, &seps);
                for key in probes(&seps) {
                    let expect = seps.partition_point(|&s| s <= key);
                    assert_eq!(
                        InternalView::child_index_for(&buf, key),
                        expect,
                        "internal n={n} key={key}"
                    );
                }
            }
        }
    }

    #[test]
    fn routes_to_agrees_with_child_index_for() {
        let mut rng = lsdb_rng::StdRng::seed_from_u64(0x2007);
        for page in [64usize, 128, 1024] {
            let cap = InternalView::capacity(page);
            let mut sizes = vec![0, 1, 2, cap];
            sizes.extend((0..30).map(|_| rng.gen_range(0..=cap)));
            for n in sizes {
                let seps = sorted_keys(&mut rng, n);
                let buf = internal(page, &seps);
                for key in probes(&seps) {
                    let child = InternalView::child_index_for(&buf, key);
                    for i in 0..=n {
                        assert_eq!(
                            InternalView::routes_to(&buf, key, i),
                            child == i,
                            "n={n} key={key} child {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn child_walks_visit_the_searched_child_range() {
        // Stepping with `child_before` from `child_index_for(hi)` and with
        // `child_after` from `child_index_for(lo)` must visit exactly the
        // children from `child_index_for(lo)` to `child_index_for(hi)`.
        let mut rng = lsdb_rng::StdRng::seed_from_u64(0x5EED);
        for page in [64usize, 128, 1024] {
            let cap = InternalView::capacity(page);
            let mut sizes = vec![0, 1, 2, cap];
            sizes.extend((0..30).map(|_| rng.gen_range(0..=cap)));
            for n in sizes {
                let seps = sorted_keys(&mut rng, n);
                let buf = internal(page, &seps);
                let probes = probes(&seps);
                for _ in 0..64 {
                    let a = probes[rng.gen_range(0..probes.len())];
                    let b = probes[rng.gen_range(0..probes.len())];
                    let (lo, hi) = (a.min(b), a.max(b));
                    let first = seps.partition_point(|&s| s <= lo);
                    let last = seps.partition_point(|&s| s <= hi);
                    let mut down = vec![last];
                    while let Some(i) = InternalView::child_before(&buf, *down.last().unwrap(), lo)
                    {
                        down.push(i);
                    }
                    let mut up = vec![first];
                    while let Some(i) = InternalView::child_after(&buf, *up.last().unwrap(), hi) {
                        up.push(i);
                    }
                    let expect: Vec<usize> = (first..=last).collect();
                    assert_eq!(up, expect, "n={n} lo={lo} hi={hi}");
                    down.reverse();
                    assert_eq!(down, expect, "n={n} lo={lo} hi={hi}");
                }
            }
        }
    }

    #[test]
    fn internal_push_pop_front() {
        let mut buf = vec![0u8; 128];
        InternalView::init(&mut buf, PageId(1));
        InternalView::insert_at(&mut buf, 0, 50, PageId(2));
        InternalView::push_front(&mut buf, PageId(0), 25);
        assert_eq!(
            InternalView::children(&buf),
            vec![PageId(0), PageId(1), PageId(2)]
        );
        assert_eq!(InternalView::seps(&buf), vec![25, 50]);
        InternalView::pop_front(&mut buf);
        assert_eq!(InternalView::children(&buf), vec![PageId(1), PageId(2)]);
        assert_eq!(InternalView::seps(&buf), vec![50]);
    }
}
