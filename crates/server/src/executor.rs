//! Job execution: the spatial and admin work an event loop runs on its
//! own warm [`QueryCtx`], one job at a time, and [`answer`], the one
//! place a query [`Request`] becomes index calls.
//!
//! A job names the catalog map it is routed to; the loop resolves it
//! through [`crate::catalog::Catalog::with_live`], which opens cold maps
//! lazily and enforces the buffer budget after the query's read guard is
//! gone. Catalog admin ops (`OPEN_MAP`, `LIST_MAPS`, `CLOSE_MAP`,
//! `STATS`) are jobs too, because opening a map may build it. A job's
//! reply leaves already enveloped, so the loop only moves bytes.
//!
//! A `BATCH` is a list of query requests. Its items share the singleton
//! reply-cache keys; the items that miss run through [`answer`] in Morton
//! order ([`answer_in_morton_order`]) under one read guard.

use crate::catalog::Catalog;
use crate::protocol::{ErrorCode, Reply, Request, MAX_BATCH_ITEMS};
use crate::server::Shared;
use lsdb_core::{queries, QueryCtx, SpatialIndex};
use lsdb_geom::{morton, world_rect, Point};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One decoded request waiting for its loop to run it (inline service
/// ops never become jobs).
pub(crate) struct Job {
    /// The loop's id of the connection that sent it.
    pub conn: u64,
    /// Correlation id the reply envelope echoes.
    pub corr: u32,
    /// Catalog id the request is routed to.
    pub map: u32,
    pub request: Request,
}

/// What executing a job produced: a freshly computed [`Reply`], or the
/// stored body of a reply-cache hit. A cached body is already the exact
/// bytes [`Reply::encode`] would produce, so serving it only needs the
/// envelope prepended — no re-execution, no re-encoding.
enum Outcome {
    Fresh(Reply),
    Cached(Arc<[u8]>),
}

impl Outcome {
    fn into_payload(self, corr: u32) -> Vec<u8> {
        match self {
            Outcome::Fresh(reply) => reply.encode_v3(corr),
            Outcome::Cached(body) => Reply::envelope_v3(corr, &body),
        }
    }
}

/// Run `job` on `ctx` and envelope its reply. A panic stays inside its
/// own request: it is answered `Internal` with the panic message, and
/// `ctx` is replaced by a fresh context (the old one may hold a half-done
/// query's state).
pub(crate) fn execute(job: &Job, shared: &Shared, ctx: &mut QueryCtx) -> Vec<u8> {
    let run = AssertUnwindSafe(|| match &job.request {
        Request::Batch(items) => Outcome::Fresh(run_batch(job.map, items, shared, ctx)),
        Request::Insert(_) | Request::Delete { .. } | Request::Flush => {
            Outcome::Fresh(run_mutation(job.map, &job.request, shared))
        }
        Request::OpenMap { .. } | Request::ListMaps | Request::CloseMap { .. } | Request::Stats => {
            Outcome::Fresh(run_admin(&job.request, shared.catalog))
        }
        query => run_query(job.map, query, shared, ctx),
    });
    match catch_unwind(run) {
        Ok(outcome) => outcome.into_payload(job.corr),
        Err(panic) => {
            *ctx = QueryCtx::new();
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Reply::Error {
                code: ErrorCode::Internal,
                message: format!("request panicked: {what}"),
            }
            .encode_v3(job.corr)
        }
    }
}

fn bad_argument(message: String) -> Reply {
    Reply::Error {
        code: ErrorCode::BadArgument,
        message,
    }
}

/// The point a query is asked at, if it has one. A window has an extent
/// instead, and any extent is legal.
fn query_point(req: &Request) -> Option<Point> {
    match *req {
        Request::Incident(p) | Request::Nearest(p) => Some(p),
        Request::Second { at, .. } | Request::Knn { at, .. } | Request::Polygon { at, .. } => {
            Some(at)
        }
        _ => None,
    }
}

/// Why no index answers `req`: a query point outside the world — the
/// precondition of `SpatialIndex`'s point queries, which `INSERT` keeps
/// for segments. Needs no map, so it is checked before one is opened.
fn point_refusal(req: &Request) -> Option<String> {
    let p = query_point(req)?;
    let world = world_rect();
    (!world.contains_point(p))
        .then(|| format!("query point {p:?} lies outside the world {world:?}"))
}

/// Why `index` cannot answer `req`: [`point_refusal`], or a `SECOND` id
/// beyond the map.
fn refusal(req: &Request, index: &dyn SpatialIndex) -> Option<String> {
    point_refusal(req).or_else(|| match *req {
        Request::Second { id, .. } if id.index() >= index.len() => Some(format!(
            "segment id {} out of range (map has {} segments)",
            id.0,
            index.len()
        )),
        _ => None,
    })
}

/// `BadArgument` naming the first item of a batch that `refuse` refuses.
fn first_refusal(items: &[Request], refuse: impl Fn(&Request) -> Option<String>) -> Option<Reply> {
    items.iter().enumerate().find_map(|(i, item)| {
        refuse(item).map(|why| bad_argument(format!("batch item {i}: {why}")))
    })
}

/// Answer one spatial query on `index`, on `ctx` reset first: the
/// answer and the counters it charged. This is the one place a query
/// [`Request`] becomes index calls; the server's singleton and batch
/// paths and the in-process batched workloads all answer through it.
///
/// A query point outside the world or a `SECOND` id beyond the map is
/// answered `BadArgument` without an index call, and so is any request
/// that is not one of the six spatial queries (`Malformed`).
pub fn answer(index: &dyn SpatialIndex, req: &Request, ctx: &mut QueryCtx) -> Reply {
    if let Some(why) = refusal(req, index) {
        return bad_argument(why);
    }
    ctx.reset();
    match *req {
        Request::Incident(p) => Reply::Segs {
            ids: index.find_incident(p, ctx),
            stats: ctx.stats(),
        },
        Request::Second { id, at } => Reply::Segs {
            ids: queries::second_endpoint(index, id, at, ctx),
            stats: ctx.stats(),
        },
        Request::Nearest(p) => Reply::Nearest {
            id: index.nearest(p, ctx),
            stats: ctx.stats(),
        },
        Request::Knn { at, k } => Reply::Segs {
            ids: index.nearest_k(at, k as usize, ctx),
            stats: ctx.stats(),
        },
        Request::Window(w) => Reply::Segs {
            ids: index.window(w, ctx),
            stats: ctx.stats(),
        },
        Request::Polygon { at, max_steps } => {
            let walk = queries::enclosing_polygon(index, at, max_steps as usize, ctx);
            Reply::Polygon {
                walk: walk.map(|w| (w.boundary, w.closed)),
                stats: ctx.stats(),
            }
        }
        _ => Reply::Error {
            code: ErrorCode::Malformed,
            message: "not one of the six spatial queries".into(),
        },
    }
}

/// Morton key of a query's locality — its point, a window's centre —
/// clamped into the 16-bit-per-axis domain [`morton::interleave`]
/// accepts (the world is 14 levels deep, so in-world points pass
/// unclamped).
fn morton_key(req: &Request) -> u32 {
    let p = match *req {
        Request::Window(w) => w.center(),
        _ => query_point(req).unwrap_or(Point::new(0, 0)),
    };
    morton::interleave(p.x.clamp(0, 0xFFFF) as u32, p.y.clamp(0, 0xFFFF) as u32)
}

/// [`answer`] the items of `items` at the positions `which`, in Morton
/// (Z-order) order of their query points with ties in submission order,
/// handing each reply to `each` with its position. Queries in one region
/// of the world run back to back and touch the same pages while they
/// are still in the CPU caches; [`answer`] resets the context per item,
/// so every reply and counter equals the singleton one.
pub fn answer_in_morton_order(
    index: &dyn SpatialIndex,
    items: &[Request],
    which: impl IntoIterator<Item = usize>,
    ctx: &mut QueryCtx,
    mut each: impl FnMut(usize, Reply),
) {
    // One key per item, not one per comparison.
    let mut order: Vec<(u32, usize)> = which
        .into_iter()
        .map(|i| (morton_key(&items[i]), i))
        .collect();
    order.sort_unstable();
    for (_, i) in order {
        each(i, answer(index, &items[i], ctx));
    }
}

/// A mutation the live index refused (an op-log append or sync failed).
/// The op was not applied and nothing was acknowledged.
fn log_failed(what: &str, e: &std::io::Error) -> Reply {
    Reply::Error {
        code: ErrorCode::Internal,
        message: format!("{what} not applied: {e}"),
    }
}

/// Apply one mutation to map `map` through the [`lsdb_core::LiveIndex`]
/// write path (durable commit, then apply). A mutation pins the slot
/// open (auto-close would lose it) and is *not* counted as a spatial
/// query — the paper's aggregates stay comparable under mixed
/// workloads. An insert is refused before the commit unless both
/// endpoints lie inside the 16K world and differ: no structure can place
/// anything else, the queries' angle geometry needs a nonzero direction,
/// and a committed op that cannot be applied would fail its replay too.
fn run_mutation(map: u32, req: &Request, shared: &Shared) -> Reply {
    let result = shared.catalog.with_live(map, |slot, live| match *req {
        Request::Insert(seg) => {
            let world = world_rect();
            if !world.contains_point(seg.a) || !world.contains_point(seg.b) {
                return bad_argument(format!("segment {seg:?} leaves the world {world:?}"));
            }
            if seg.is_degenerate() {
                return bad_argument(format!("segment {seg:?} has zero length"));
            }
            match live.insert(seg) {
                Ok((id, lsn)) => {
                    slot.mark_mutated();
                    Reply::Inserted { id, lsn: lsn.0 }
                }
                Err(e) => log_failed("insert", &e),
            }
        }
        Request::Delete { id } => match live.remove(id) {
            Ok((removed, lsn)) => {
                slot.mark_mutated();
                Reply::Deleted {
                    removed,
                    lsn: lsn.0,
                }
            }
            Err(e) => log_failed("delete", &e),
        },
        Request::Flush => match live.flush() {
            Ok(lsn) => Reply::Flushed { lsn: lsn.0 },
            Err(e) => log_failed("flush", &e),
        },
        _ => Reply::Error {
            code: ErrorCode::Malformed,
            message: "non-mutation routed as a mutation".into(),
        },
    });
    result.unwrap_or_else(|e| e.to_reply())
}

/// Answer one spatial query on map `map`; its counters fold into the
/// map's slot *and* the catalog aggregate. A query point outside the
/// world is refused before the map or its reply cache is touched.
///
/// The query probes the slot's reply cache first: a hit returns the
/// stored body (bit-for-bit what [`answer`] would encode) without taking
/// the index read lock, and folds the stored counter snapshot exactly as
/// a cold execution folds its context, so `STATS` aggregates cannot tell
/// the difference. A miss is answered under the read guard and offers the
/// encoded reply for caching under the epoch observed *inside* the guard
/// — mutations bump the epoch while holding the write guard, so that
/// epoch exactly identifies the index state the reply was computed from.
fn run_query(map: u32, req: &Request, shared: &Shared, ctx: &mut QueryCtx) -> Outcome {
    if let Some(why) = point_refusal(req) {
        return Outcome::Fresh(bad_argument(why));
    }
    let result = shared.catalog.with_live(map, |slot, live| {
        let fold = |stats| {
            slot.stats().add(stats);
            shared.catalog.aggregate().add(stats);
        };
        // The cache key is the request body alone — identical queries
        // share one entry whatever their correlation ids.
        let cache = slot.reply_cache();
        let key = cache.on().then(|| req.encode());
        if let Some(key_bytes) = key.as_deref() {
            if let Some((body, stats)) = cache.probe(live.epoch(), key_bytes) {
                fold(stats);
                return Outcome::Cached(body);
            }
        }
        live.with_read(|index| {
            let epoch = live.epoch();
            let reply = answer(index, req, ctx);
            if let Some(stats) = reply.stats() {
                fold(stats);
                if let Some(key_bytes) = key.as_deref() {
                    cache.insert(epoch, key_bytes, reply.encode().into(), stats);
                }
            }
            Outcome::Fresh(reply)
        })
    });
    result.unwrap_or_else(|e| Outcome::Fresh(e.to_reply()))
}

/// Answer one batch on map `map`: one nested reply per item in
/// submission order, each item's counters folded into the slot and the
/// aggregate (so `STATS` sees one entry per query, not per batch).
///
/// A batch is refused whole, naming its first refused item: one with a
/// query point outside the world before the map is touched, then — under
/// the read guard, before any item probes the cache — one with a
/// `SECOND` id beyond the map. Under that one read guard each item probes
/// the reply cache with its singleton key (a batch item hits what a lone
/// query cached, and vice versa); hits decode their stored bodies into
/// the nested reply, and only the misses run, in Morton order
/// ([`answer_in_morton_order`]), each filling the cache under its key.
fn run_batch(map: u32, items: &[Request], shared: &Shared, ctx: &mut QueryCtx) -> Reply {
    if items.len() > MAX_BATCH_ITEMS {
        return bad_argument(format!(
            "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item limit",
            items.len()
        ));
    }
    if let Some(refused) = first_refusal(items, point_refusal) {
        return refused;
    }
    let result = shared.catalog.with_live(map, |slot, live| {
        let fold = |stats| {
            slot.stats().add(stats);
            shared.catalog.aggregate().add(stats);
        };
        // The whole batch runs under one read guard: a concurrent writer
        // lands either before or after it, never in the middle.
        live.with_read(|index| {
            if let Some(refused) = first_refusal(items, |item| refusal(item, index)) {
                return refused;
            }
            let cache = slot.reply_cache();
            let epoch = live.epoch();
            let mut replies: Vec<Option<Reply>> = vec![None; items.len()];
            let mut misses = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                match cache.on().then(|| cache.probe(epoch, &item.encode())) {
                    Some(Some((body, stats))) => {
                        fold(stats);
                        let reply = Reply::decode(&body)
                            .expect("cached bodies are valid singleton replies");
                        replies[i] = Some(reply);
                    }
                    _ => misses.push(i),
                }
            }
            answer_in_morton_order(index, items, misses, ctx, |i, reply| {
                let stats = reply.stats().expect("a checked batch item is answered");
                fold(stats);
                if cache.on() {
                    cache.insert(epoch, &items[i].encode(), reply.encode().into(), stats);
                }
                replies[i] = Some(reply);
            });
            Reply::Batch(
                replies
                    .into_iter()
                    .map(|r| r.expect("every batch item answered"))
                    .collect(),
            )
        })
    });
    result.unwrap_or_else(|e| e.to_reply())
}

/// Execute one catalog admin op.
fn run_admin(req: &Request, catalog: &Catalog) -> Reply {
    match req {
        Request::OpenMap { name } => match catalog.open_by_name(name) {
            Ok((id, len)) => Reply::MapOpened { id, len },
            Err(e) => e.to_reply(),
        },
        Request::ListMaps => Reply::MapList(catalog.list()),
        Request::CloseMap { name } => match catalog.close_by_name(name) {
            Ok(was_open) => Reply::MapClosed { was_open },
            Err(e) => e.to_reply(),
        },
        Request::Stats => catalog.stats_v3(),
        _ => Reply::Error {
            code: ErrorCode::Malformed,
            message: "non-admin op routed as admin".into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_geom::Rect;

    #[test]
    fn morton_key_orders_neighbors_together() {
        // Points in the same quadrant sort adjacent to each other, ahead
        // of a far-away point that is closer in submission order.
        let key = |x, y| morton_key(&Request::Nearest(Point::new(x, y)));
        let (near_a, near_b, far) = (key(10, 10), key(11, 10), key(9000, 9000));
        assert!(near_a < far && near_b < far);
        assert!(near_a.abs_diff(near_b) < near_a.abs_diff(far));
        // A window sorts by its centre.
        let w = Request::Window(Rect::new(8990, 8990, 9010, 9010));
        assert_eq!(morton_key(&w), far);
    }

    #[test]
    fn morton_key_clamps_out_of_world_points() {
        // Must not trip interleave's 16-bit debug assertion.
        let _ = morton_key(&Request::Incident(Point::new(-5, i32::MAX)));
        let _ = morton_key(&Request::Knn {
            at: Point::new(i32::MIN, 70000),
            k: 1,
        });
        // A window's centre is taken without overflow at any extent.
        let full = Request::Window(Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX));
        assert_eq!(morton_key(&full), 0);
    }
}
