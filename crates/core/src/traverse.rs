//! Structure-agnostic traversal engines — the one query algorithm under
//! all of the paper's structures.
//!
//! The paper's thesis is that the R\*-tree, R+-tree and PMR quadtree
//! differ only in *node decomposition policy*; the query algorithms
//! (depth-first search for point and window queries, Hoel & Samet's
//! incremental best-first search for ranked neighbors) are identical.
//! This module makes that literal: each structure implements [`NodeAccess`]
//! — "seed the traversal, expand a node into child nodes and leaf segment
//! entries, charging the right counters" — and the engines here own the
//! search loops, the priority queue, the dedup sets and the result
//! ordering. A structure crate contains no recursion and no heap of its
//! own. The polygon walk of query 4 runs here too ([`polygon_walk`]): the
//! same walk as [`crate::queries::enclosing_polygon`]'s composition over
//! the trait queries, with each step's incidence probe run as the point
//! DFS directly.
//!
//! # Counter-charging contract
//!
//! The engines charge exactly three things themselves:
//!
//! * one `seg_comps` (plus segment-pool disk) per segment record fetched
//!   through [`SegmentTable::get`] — for DFS entries that survive dedup,
//!   and for every nearest-neighbor candidate popped from the queue;
//! * in [`polygon_walk`], one `seg_comps` per incident record a step
//!   returns, for the walk's own read of it. The record is the one the
//!   step's probe just fetched, so no second lookup is made: that fetch
//!   touched the record's page in this query, so the re-read could not
//!   charge a disk access (the segment mini-cache's argument). The
//!   composition's `get` per incident segment charges exactly this;
//! * nothing else. All `bbox_comps` and index-pool disk charges are made
//!   by the structure inside its seed/expand callbacks (one bbox per
//!   R-tree entry scanned, one per PMR bucket located-or-scanned, one per
//!   grid cell examined), which is what lets each structure keep its
//!   paper-faithful accounting while sharing the loop. The stored-rect
//!   prefilter of the R-tree family likewise lives structure-side, inside
//!   the batched kernels of [`crate::scan`]: an expansion emits exactly
//!   the entries whose stored rectangle meets the query region, so the
//!   engine sees the same fetch set, in the same order, as when it
//!   applied the prefilter itself.
//!
//! # Determinism and tie-breaking
//!
//! DFS visits nodes in emission order (depth-first, matching the classic
//! recursive formulation). Best-first search orders its queue by
//! `(lower bound, kind, tie)`: at equal distance, unexpanded *nodes* come
//! first, then unresolved *candidates*, then *exact* results ordered by
//! `SegId`. Expanding every region that could still contain an
//! equal-distance segment before reporting anything at that distance makes
//! the output totally ordered by `(distance, SegId)` — the documented
//! tie-break rule of [`crate::SpatialIndex::nearest_k`].
//!
//! # Scratch-buffer reuse
//!
//! Every engine borrows a `Scratch` (stacks, sinks, priority queue,
//! dedup set, point hits) cached inside the [`QueryCtx`], once per query
//! — a polygon walk takes it once for all its steps; buffers are cleared,
//! never dropped, between queries, so a warmed-up context runs probes,
//! window scans and nearest-neighbor queries without allocating.

use crate::queries::{self, PolygonWalk};
use crate::{LocId, QueryCtx, SegId, SegmentTable};
use lsdb_geom::{Dist2, Point, Rect, Segment};
use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

/// The expansion policy a structure contributes to the shared engines.
///
/// Each method receives the query context (to charge disk and bbox/bucket
/// counters) and a sink to emit child nodes and leaf segment entries into.
/// Regions and lower bounds must be *conservative*: a point query expands
/// only nodes whose region contains the point, a window query only nodes
/// whose region meets the window, and every nearest-neighbor bound must
/// not exceed the true distance of anything stored under the node.
pub trait NodeAccess {
    /// Traversal handle for one node: a page id + level for the R-trees, a
    /// quadtree block for the PMR, a cell coordinate for the grid.
    type Node: Copy + Send + 'static;

    /// The segment table the engines fetch records from (charging one
    /// `seg_comps` per fetch).
    fn table(&self) -> &SegmentTable;

    /// Start a point query: push the root (trees) or resolve the bucket
    /// containing `p` outright (PMR, grid). With `probe_only` the
    /// traversal must visit (and charge) the same index pages but emit no
    /// segment entries — the paper's "locate the leaf" step of query 2.
    /// The first leaf reached reports its id via [`DfsSink::arrive`].
    fn seed_point(
        &self,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Self::Node>,
    );

    /// Expand one node of a point query: child nodes whose region contains
    /// `p`, or this leaf's entries.
    fn expand_point(
        &self,
        node: Self::Node,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Self::Node>,
    );

    /// Start a window query.
    fn seed_window(&self, w: Rect, ctx: &mut QueryCtx, sink: &mut DfsSink<Self::Node>);

    /// Expand one node of a window query: child nodes/entries whose region
    /// meets `w`.
    fn expand_window(
        &self,
        node: Self::Node,
        w: Rect,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Self::Node>,
    );

    /// Start a nearest-neighbor query: enqueue roots/buckets with
    /// conservative lower bounds.
    fn seed_nearest(&self, p: Point, ctx: &mut QueryCtx, sink: &mut NnSink<Self::Node>);

    /// Expand one node of a nearest-neighbor query into child nodes and/or
    /// candidates, each with a conservative lower bound.
    fn expand_nearest(
        &self,
        node: Self::Node,
        p: Point,
        ctx: &mut QueryCtx,
        sink: &mut NnSink<Self::Node>,
    );
}

/// Emission buffer for the depth-first engines. Nodes are visited in
/// emission order; entries are resolved (dedup → fetch → predicate) as
/// soon as the emitting expansion returns.
pub struct DfsSink<N> {
    nodes: Vec<N>,
    entries: Vec<SegId>,
    arrived: Option<LocId>,
}

impl<N> Default for DfsSink<N> {
    fn default() -> Self {
        DfsSink {
            nodes: Vec::new(),
            entries: Vec::new(),
            arrived: None,
        }
    }
}

impl<N> DfsSink<N> {
    /// Emit a child node to visit (in emission order, depth-first).
    pub fn node(&mut self, n: N) {
        self.nodes.push(n);
    }

    /// Reverse the nodes emitted so far by the current expansion. For
    /// structures whose legacy traversal popped a plain stack (the PMR
    /// quadtree), emitting in storage order and reversing reproduces the
    /// historical visit order exactly.
    pub fn reverse_nodes(&mut self) {
        self.nodes.reverse();
    }

    /// Emit a leaf entry for the engine to resolve (dedup, fetch the
    /// record, apply the exact segment predicate). A structure that
    /// stores per-entry bounding rectangles (the R-tree family) emits
    /// only the entries whose rectangle meets the query region — its
    /// scan kernel applies that prefilter; bucket structures (PMR, grid)
    /// emit every bucket entry.
    pub fn entry(&mut self, id: SegId) {
        self.entries.push(id);
    }

    /// Report arrival at a leaf/bucket; the first report wins and becomes
    /// the probe result.
    pub fn arrive(&mut self, loc: LocId) {
        if self.arrived.is_none() {
            self.arrived = Some(loc);
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.entries.clear();
        self.arrived = None;
    }
}

/// What one best-first queue element resolves to.
enum NnItem<N> {
    Node(N),
    Candidate(SegId),
    Exact(SegId),
}

/// Queue element ordered by `(lower bound, kind, tie)`. Kind ranks nodes
/// before candidates before exacts so every region/candidate that could
/// still produce an equal-distance result resolves before anything at that
/// distance is reported; exact ties break by `SegId`, making the output
/// totally ordered by `(distance, SegId)`.
struct NnEntry<N> {
    dist: Dist2,
    rank: u8,
    tie: u64,
    item: NnItem<N>,
}

impl<N> PartialEq for NnEntry<N> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<N> Eq for NnEntry<N> {}
impl<N> PartialOrd for NnEntry<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for NnEntry<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .cmp(&other.dist)
            .then(self.rank.cmp(&other.rank))
            .then(self.tie.cmp(&other.tie))
    }
}

/// Emission buffer for the best-first engine: the single shared min-heap.
pub struct NnSink<N> {
    heap: BinaryHeap<Reverse<NnEntry<N>>>,
    seq: u64,
}

impl<N> Default for NnSink<N> {
    fn default() -> Self {
        NnSink {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<N> NnSink<N> {
    /// Enqueue a node at a conservative lower bound.
    pub fn node(&mut self, n: N, lower_bound: Dist2) {
        self.seq += 1;
        self.heap.push(Reverse(NnEntry {
            dist: lower_bound,
            rank: 0,
            tie: self.seq,
            item: NnItem::Node(n),
        }));
    }

    /// Enqueue a candidate segment at a conservative lower bound (its
    /// exact distance is computed — one segment comparison — when it
    /// pops).
    pub fn candidate(&mut self, id: SegId, lower_bound: Dist2) {
        self.seq += 1;
        self.heap.push(Reverse(NnEntry {
            dist: lower_bound,
            rank: 1,
            tie: self.seq,
            item: NnItem::Candidate(id),
        }));
    }

    /// Enqueue a segment at its *exact* distance (the structure already
    /// fetched the record and charged the comparison). Popping it reports
    /// it — no further resolution.
    pub fn exact(&mut self, id: SegId, dist: Dist2) {
        self.heap.push(Reverse(NnEntry {
            dist,
            rank: 2,
            tie: id.0 as u64,
            item: NnItem::Exact(id),
        }));
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

/// Per-context reusable traversal state. Cached in the [`QueryCtx`]
/// across queries (and across `reset`), so steady-state traversals reuse
/// capacity instead of allocating.
struct Scratch<N> {
    stack: Vec<N>,
    sink: DfsSink<N>,
    nn: NnSink<N>,
    /// Window and nearest-neighbor dedup: ids already fetched or reported.
    seen: HashSet<SegId>,
    /// Point-query hits: the incident records emitted so far.
    hits: Vec<(SegId, Segment)>,
}

impl<N> Default for Scratch<N> {
    fn default() -> Self {
        Scratch {
            stack: Vec::new(),
            sink: DfsSink::default(),
            nn: NnSink::default(),
            seen: HashSet::new(),
            hits: Vec::new(),
        }
    }
}

fn take_scratch<N: Copy + Send + 'static>(ctx: &mut QueryCtx) -> Box<Scratch<N>> {
    ctx.take_scratch_slot()
        // A context that last served a different structure type holds a
        // differently-typed scratch; start fresh (the old one is dropped).
        .and_then(|b| b.downcast::<Scratch<N>>().ok())
        .unwrap_or_default()
}

fn put_scratch<N: Copy + Send + 'static>(ctx: &mut QueryCtx, s: Box<Scratch<N>>) {
    ctx.put_scratch_slot(s as Box<dyn Any + Send>);
}

/// Run `f` on the context's scratch, taken once and put back after.
fn with_scratch<N: Copy + Send + 'static, R>(
    ctx: &mut QueryCtx,
    f: impl FnOnce(&mut Scratch<N>, &mut QueryCtx) -> R,
) -> R {
    let mut s = take_scratch::<N>(ctx);
    let r = f(&mut s, ctx);
    put_scratch(ctx, s);
    r
}

/// Which DFS query is running (decides the seed and expand callbacks).
#[derive(Clone, Copy)]
enum DfsQuery {
    Point { p: Point, probe_only: bool },
    Window { w: Rect },
}

/// The depth-first loop under every point and window query: seed, then
/// visit emitted nodes in emission order, handing each emitted leaf entry
/// to `resolve` as soon as the emitting expansion returns. Returns the
/// first leaf/bucket arrival.
#[inline]
fn dfs<A: NodeAccess>(
    acc: &A,
    q: DfsQuery,
    stack: &mut Vec<A::Node>,
    sink: &mut DfsSink<A::Node>,
    ctx: &mut QueryCtx,
    mut resolve: impl FnMut(SegId, &mut QueryCtx),
) -> LocId {
    stack.clear();
    sink.clear();
    let mut loc = LocId::NONE;
    match q {
        DfsQuery::Point { p, probe_only } => acc.seed_point(p, probe_only, ctx, sink),
        DfsQuery::Window { w } => acc.seed_window(w, ctx, sink),
    }
    loop {
        if loc == LocId::NONE {
            if let Some(l) = sink.arrived.take() {
                loc = l;
            }
        }
        for &id in &sink.entries {
            resolve(id, ctx);
        }
        sink.entries.clear();
        // Visit emitted nodes in emission order: push the block reversed,
        // pop the top — exactly the classic recursion's pre-order.
        let base = stack.len();
        stack.append(&mut sink.nodes);
        stack[base..].reverse();
        let Some(n) = stack.pop() else { break };
        match q {
            DfsQuery::Point { p, probe_only } => acc.expand_point(n, p, probe_only, ctx, sink),
            DfsQuery::Window { w } => acc.expand_window(n, w, ctx, sink),
        }
    }
    loc
}

/// The point DFS: collects into `hits` every record with an endpoint at
/// `p`, in emission order. Dedup marks ids on *emission* (a record seen in
/// one leaf and rejected is re-fetched from another — the historical
/// multi-leaf accounting of the R+-tree), so the dedup set is `hits`
/// itself: a handful of ids, scanned linearly.
fn point_records<A: NodeAccess>(
    acc: &A,
    p: Point,
    probe_only: bool,
    s: &mut Scratch<A::Node>,
    hits: &mut Vec<(SegId, Segment)>,
    ctx: &mut QueryCtx,
) -> LocId {
    hits.clear();
    let table = acc.table();
    let q = DfsQuery::Point { p, probe_only };
    dfs(acc, q, &mut s.stack, &mut s.sink, ctx, |id, ctx| {
        if hits.iter().any(|&(h, _)| h == id) {
            return;
        }
        let seg = table.get(id, ctx);
        if seg.has_endpoint(p) {
            hits.push((id, seg));
        }
    })
}

/// [`point_records`] into the scratch's own hit list.
fn point_hits<A: NodeAccess>(
    acc: &A,
    p: Point,
    probe_only: bool,
    s: &mut Scratch<A::Node>,
    ctx: &mut QueryCtx,
) -> LocId {
    let mut hits = std::mem::take(&mut s.hits);
    let loc = point_records(acc, p, probe_only, s, &mut hits, ctx);
    s.hits = hits;
    loc
}

/// Query 1 engine: emit every segment with an endpoint exactly at `p`.
pub fn incident_visit<A: NodeAccess>(
    acc: &A,
    p: Point,
    ctx: &mut QueryCtx,
    f: &mut dyn FnMut(SegId),
) {
    with_scratch(ctx, |s, ctx| {
        point_hits(acc, p, false, s, ctx);
        for &(id, _) in &s.hits {
            f(id);
        }
    })
}

/// Point-location engine: visit the same index pages as a point query,
/// fetch no segment records, report the first leaf/bucket reached.
pub fn probe_point<A: NodeAccess>(acc: &A, p: Point, ctx: &mut QueryCtx) -> LocId {
    with_scratch(ctx, |s, ctx| point_hits(acc, p, true, s, ctx))
}

/// Query 5 engine, streaming: every segment meeting `w`, once each. Dedup
/// marks ids on first *encounter*: a record fetched once is never fetched
/// again, match or not.
pub fn window_visit<A: NodeAccess>(acc: &A, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
    with_scratch(ctx, |s: &mut Scratch<A::Node>, ctx| {
        let Scratch {
            stack, sink, seen, ..
        } = s;
        seen.clear();
        let table = acc.table();
        dfs(acc, DfsQuery::Window { w }, stack, sink, ctx, |id, ctx| {
            if seen.insert(id) && w.intersects_segment(&table.get(id, ctx)) {
                f(id);
            }
        });
    })
}

/// The incremental best-first loop under every nearest-neighbor entry
/// point: emits the first `k` distinct segments in `(distance, SegId)`
/// order.
fn best_first<A: NodeAccess>(
    acc: &A,
    p: Point,
    k: usize,
    s: &mut Scratch<A::Node>,
    ctx: &mut QueryCtx,
    mut emit: impl FnMut(SegId),
) {
    if k == 0 {
        return;
    }
    let Scratch { nn, seen, .. } = s;
    nn.clear();
    seen.clear();
    acc.seed_nearest(p, ctx, nn);
    let mut emitted = 0usize;
    while let Some(Reverse(NnEntry { item, .. })) = nn.heap.pop() {
        match item {
            NnItem::Exact(id) => {
                // A segment stored in several leaves/buckets resolves to
                // several exacts; report it once.
                if seen.insert(id) {
                    emit(id);
                    emitted += 1;
                    if emitted == k {
                        break;
                    }
                }
            }
            NnItem::Candidate(id) => {
                let seg = acc.table().get(id, ctx);
                nn.exact(id, seg.dist2_point(p));
            }
            NnItem::Node(n) => acc.expand_nearest(n, p, ctx, nn),
        }
    }
}

/// Query 3 engine: a segment at minimal distance from `p` (smallest
/// `SegId` among equidistant ones).
pub fn best_first_nearest<A: NodeAccess>(acc: &A, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
    with_scratch(ctx, |s, ctx| {
        let mut found = None;
        best_first(acc, p, 1, s, ctx, |id| found = Some(id));
        found
    })
}

/// Ranked-retrieval engine: the `k` nearest segments in
/// `(distance, SegId)` order.
pub fn best_first_nearest_k<A: NodeAccess>(
    acc: &A,
    p: Point,
    k: usize,
    ctx: &mut QueryCtx,
) -> Vec<SegId> {
    with_scratch(ctx, |s, ctx| {
        let mut out = Vec::new();
        best_first(acc, p, k, s, ctx, |id| out.push(id));
        out
    })
}

/// Query 4 engine: the walk of [`crate::queries::enclosing_polygon`] run
/// inside the engine. The scratch is taken once per walk, the start edge
/// comes from the best-first loop, and each step's incidence probe is the
/// point DFS handing the walk the records it already fetched. The walk's
/// own read of each returned record is charged as one `seg_comps` without
/// a second table lookup: the probe touched that record's page in this
/// query, so the re-read could never charge a disk access. Same boundary
/// and counters as the composition over the trait queries.
pub fn polygon_walk<A: NodeAccess>(
    acc: &A,
    p: Point,
    max_steps: usize,
    ctx: &mut QueryCtx,
) -> Option<PolygonWalk> {
    with_scratch(ctx, |s: &mut Scratch<A::Node>, ctx| {
        let mut e0 = None;
        best_first(acc, p, 1, s, ctx, |id| e0 = Some(id));
        let e0 = e0?;
        let start = (e0, acc.table().get(e0, ctx));
        queries::walk_face(start, p, max_steps, ctx, |v, ctx, incident| {
            point_records(acc, v, false, s, incident, ctx);
            ctx.seg_comps += incident.len() as u64;
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nn_entry_order_is_dist_then_kind_then_tie() {
        let e = |dist: i64, rank: u8, tie: u64| NnEntry::<u32> {
            dist: Dist2::from_int(dist),
            rank,
            tie,
            item: NnItem::Exact(SegId(0)),
        };
        assert!(e(1, 2, 0) < e(2, 0, 0), "distance dominates");
        assert!(e(5, 0, 9) < e(5, 2, 1), "nodes resolve before exacts");
        assert!(e(5, 2, 3) < e(5, 2, 4), "exact ties break by id");
    }

    #[test]
    fn scratch_is_reused_across_queries() {
        let mut ctx = QueryCtx::new();
        let mut s = take_scratch::<u32>(&mut ctx);
        s.stack.reserve(64);
        let cap = s.stack.capacity();
        s.stack.push(7);
        put_scratch(&mut ctx, s);
        ctx.reset();
        let s = take_scratch::<u32>(&mut ctx);
        assert!(s.stack.capacity() >= cap, "capacity survives reset");
        // A differently-typed scratch starts fresh instead of panicking.
        put_scratch(&mut ctx, s);
        let other = take_scratch::<(i32, i32)>(&mut ctx);
        assert_eq!(other.stack.capacity(), 0);
    }
}
