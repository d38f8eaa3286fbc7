//! Job execution: the spatial and admin work an event loop runs on its
//! own warm [`QueryCtx`], one job at a time.
//!
//! A job names the catalog map it is routed to; the loop resolves it
//! through [`crate::catalog::Catalog::with_live`], which opens cold maps
//! lazily and enforces the buffer budget after the query's read guard is
//! gone. Catalog admin ops (`OPEN_MAP`, `LIST_MAPS`, `CLOSE_MAP`,
//! `STATS`) are jobs too, because opening a map may build it. A job's
//! reply leaves already enveloped, so the loop only moves bytes.

use crate::catalog::Catalog;
use crate::protocol::{ErrorCode, Reply, Request, MAX_BATCH_ITEMS};
use crate::server::Shared;
use lsdb_core::{execute_batch, queries, BatchAnswer, BatchRequest, QueryCtx};
use lsdb_geom::{world_rect, Point};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The work itself (inline service ops never become jobs).
pub(crate) enum Work {
    Single(Request),
    Batch(BatchRequest),
    /// A catalog admin op (`OPEN_MAP`/`LIST_MAPS`/`CLOSE_MAP`/`STATS`) —
    /// queued because opening a map can build it.
    Admin(Request),
}

/// One decoded request waiting for its loop to run it.
pub(crate) struct Job {
    /// The loop's id of the connection that sent it.
    pub conn: u64,
    /// Correlation id the reply envelope echoes.
    pub corr: u32,
    /// Catalog id the request is routed to.
    pub map: u32,
    pub work: Work,
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
    let run = AssertUnwindSafe(|| match &job.work {
        Work::Single(req) => run_single(job.map, req, shared, ctx),
        Work::Batch(req) => Outcome::Fresh(run_batch(job.map, req, shared, ctx)),
        Work::Admin(req) => Outcome::Fresh(run_admin(req, shared.catalog)),
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

/// `BadArgument` for a query point outside the world — the precondition
/// of `SpatialIndex`'s point queries, which `INSERT` keeps for segments.
fn refuse_out_of_world(req: &Request) -> Option<Reply> {
    let p = query_point(req)?;
    let world = world_rect();
    (!world.contains_point(p)).then(|| Reply::Error {
        code: ErrorCode::BadArgument,
        message: format!("query point {p:?} lies outside the world {world:?}"),
    })
}

/// A mutation the live index refused (an op-log append or sync failed).
/// The op was not applied and nothing was acknowledged.
fn log_failed(what: &str, e: &std::io::Error) -> Reply {
    Reply::Error {
        code: ErrorCode::Internal,
        message: format!("{what} not applied: {e}"),
    }
}

/// Execute one spatial query or mutation against map `map`; query
/// counters fold into the map's slot *and* the catalog aggregate,
/// exactly as the PR-2 blocking server folded its single map. Mutations
/// route through the [`lsdb_core::LiveIndex`] write path (durable
/// commit, then apply), pin the slot open (auto-close would lose the
/// mutation), and are *not* counted as spatial queries — the paper's
/// aggregates stay comparable under mixed workloads. An insert is
/// refused before the commit unless both endpoints lie inside the 16K
/// world and differ: no structure can place anything else, the queries'
/// angle geometry needs a nonzero direction, and a committed op that
/// cannot be applied would fail its replay too. A query point outside
/// the world is refused the same way, before the reply cache is probed.
///
/// Queries probe the slot's reply cache first: a hit returns the stored
/// body (bit-for-bit what execution would encode) and folds the
/// stored counter snapshot exactly as a cold execution folds its
/// context, so `STATS` aggregates cannot tell the difference. A miss
/// executes under the read guard and offers the encoded reply for
/// caching under the epoch observed *inside* the guard — mutations bump
/// the epoch while holding the write guard, so that epoch exactly
/// identifies the index state the reply was computed from.
fn run_single(map: u32, req: &Request, shared: &Shared, ctx: &mut QueryCtx) -> Outcome {
    if let Some(refusal) = refuse_out_of_world(req) {
        return Outcome::Fresh(refusal);
    }
    let result = shared.catalog.with_live(map, |slot, live| {
        match *req {
            Request::Insert(seg) => {
                let world = world_rect();
                if !world.contains_point(seg.a) || !world.contains_point(seg.b) {
                    return Outcome::Fresh(Reply::Error {
                        code: ErrorCode::BadArgument,
                        message: format!("segment {seg:?} leaves the world {world:?}"),
                    });
                }
                if seg.is_degenerate() {
                    return Outcome::Fresh(Reply::Error {
                        code: ErrorCode::BadArgument,
                        message: format!("segment {seg:?} has zero length"),
                    });
                }
                return match live.insert(seg) {
                    Ok((id, lsn)) => {
                        slot.mark_mutated();
                        Outcome::Fresh(Reply::Inserted { id, lsn: lsn.0 })
                    }
                    Err(e) => Outcome::Fresh(log_failed("insert", &e)),
                };
            }
            Request::Delete { id } => {
                return match live.remove(id) {
                    Ok((removed, lsn)) => {
                        slot.mark_mutated();
                        Outcome::Fresh(Reply::Deleted {
                            removed,
                            lsn: lsn.0,
                        })
                    }
                    Err(e) => Outcome::Fresh(log_failed("delete", &e)),
                }
            }
            Request::Flush => {
                return match live.flush() {
                    Ok(lsn) => Outcome::Fresh(Reply::Flushed { lsn: lsn.0 }),
                    Err(e) => Outcome::Fresh(log_failed("flush", &e)),
                }
            }
            _ => {}
        }
        // The cache key is the request body alone — identical queries
        // share one entry whatever their correlation ids.
        let cache = slot.reply_cache();
        let key = cache.on().then(|| req.encode());
        if let Some(key_bytes) = key.as_deref() {
            if let Some((body, stats)) = cache.probe(live.epoch(), key_bytes) {
                slot.stats().add(stats);
                shared.catalog.aggregate().add(stats);
                return Outcome::Cached(body);
            }
        }
        live.with_read(|index| {
            let epoch = live.epoch();
            ctx.reset();
            let reply = match *req {
                Request::Incident(p) => Reply::Segs {
                    ids: index.find_incident(p, ctx),
                    stats: ctx.stats(),
                },
                Request::Second { id, at } => {
                    if id.index() >= index.len() {
                        return Outcome::Fresh(Reply::Error {
                            code: ErrorCode::BadArgument,
                            message: format!(
                                "segment id {} out of range (map has {} segments)",
                                id.0,
                                index.len()
                            ),
                        });
                    }
                    Reply::Segs {
                        ids: queries::second_endpoint(index, id, at, ctx),
                        stats: ctx.stats(),
                    }
                }
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
                // Service and admin ops never become Single jobs;
                // mutations returned above.
                _ => {
                    return Outcome::Fresh(Reply::Error {
                        code: ErrorCode::Malformed,
                        message: "service op queued as a spatial job".into(),
                    })
                }
            };
            slot.stats().add(ctx.stats());
            shared.catalog.aggregate().add(ctx.stats());
            if let Some(key_bytes) = key.as_deref() {
                cache.insert(epoch, key_bytes, reply.encode().into(), ctx.stats());
            }
            Outcome::Fresh(reply)
        })
    });
    result.unwrap_or_else(|e| Outcome::Fresh(e.to_reply()))
}

/// Execute one batch against map `map`: validate (a batch is refused
/// whole if any item would be), run Morton-sorted,
/// fold each item's counters into the slot and the aggregate (so
/// `STATS` sees one entry per query, not per batch), and nest the
/// per-item replies in submission order.
///
/// Each item probes the reply cache individually (under the batch's one
/// read guard, so the epoch is exact): hits decode their stored bodies
/// straight into the nested reply, and only the *misses* travel through
/// [`execute_batch`]'s Morton sort. `execute_batch` charges each item's
/// counters byte-identically to executing it alone on a freshly reset
/// context, so carving misses out of a batch changes no item's stats —
/// the property the cache-parity suite pins across mixed hit/miss
/// batches.
fn run_batch(map: u32, req: &BatchRequest, shared: &Shared, ctx: &mut QueryCtx) -> Reply {
    if req.len() > MAX_BATCH_ITEMS {
        return Reply::Error {
            code: ErrorCode::BadArgument,
            message: format!(
                "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item limit",
                req.len()
            ),
        };
    }
    if let Some(refusal) = (0..req.len()).find_map(|i| refuse_out_of_world(&item_request(req, i))) {
        return refusal;
    }
    let result = shared.catalog.with_live(map, |slot, live| {
        // The whole batch runs under one read guard: a concurrent writer
        // lands either before or after it, never in the middle.
        live.with_read(|index| {
            if let Some(max) = req.max_seg_id() {
                if max.index() >= index.len() {
                    return Reply::Error {
                        code: ErrorCode::BadArgument,
                        message: format!(
                            "segment id {} out of range (map has {} segments)",
                            max.0,
                            index.len()
                        ),
                    };
                }
            }
            let cache = slot.reply_cache();
            let epoch = live.epoch();
            let n = req.len();
            let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
            let mut miss_keys: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
            let mut misses: Vec<usize> = Vec::with_capacity(n);
            for i in 0..n {
                if cache.on() {
                    // Items share the singleton key space: a batch item
                    // hits what a lone query cached, and vice versa.
                    let key_bytes = item_request(req, i).encode();
                    if let Some((body, stats)) = cache.probe(epoch, &key_bytes) {
                        slot.stats().add(stats);
                        shared.catalog.aggregate().add(stats);
                        let inner = Reply::decode(&body)
                            .expect("cached bodies are valid singleton replies");
                        replies[i] = Some(inner);
                        continue;
                    }
                    miss_keys[i] = Some(key_bytes);
                }
                misses.push(i);
            }
            if !misses.is_empty() {
                let sub = sub_batch(req, &misses);
                let items = execute_batch(index, &sub, ctx);
                for (item, &i) in items.into_iter().zip(&misses) {
                    slot.stats().add(item.stats);
                    shared.catalog.aggregate().add(item.stats);
                    let reply = match item.answer {
                        BatchAnswer::Segs(ids) => Reply::Segs {
                            ids,
                            stats: item.stats,
                        },
                        BatchAnswer::Nearest(id) => Reply::Nearest {
                            id,
                            stats: item.stats,
                        },
                        BatchAnswer::Polygon(walk) => Reply::Polygon {
                            walk,
                            stats: item.stats,
                        },
                    };
                    if let Some(key_bytes) = &miss_keys[i] {
                        cache.insert(epoch, key_bytes, reply.encode().into(), item.stats);
                    }
                    replies[i] = Some(reply);
                }
            }
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

/// The singleton [`Request`] equivalent of batch item `i` — the reply
/// cache's key, shared with the singleton execution path.
fn item_request(req: &BatchRequest, i: usize) -> Request {
    match req {
        BatchRequest::Incident(v) => Request::Incident(v[i]),
        BatchRequest::Second(v) => {
            let (id, at) = v[i];
            Request::Second { id, at }
        }
        BatchRequest::Nearest(v) => Request::Nearest(v[i]),
        BatchRequest::Knn(v) => {
            let (at, k) = v[i];
            Request::Knn { at, k }
        }
        BatchRequest::Window(v) => Request::Window(v[i]),
        BatchRequest::Polygon { points, max_steps } => Request::Polygon {
            at: points[i],
            max_steps: *max_steps,
        },
    }
}

/// The sub-batch holding exactly the items at `keep` (in order) — what
/// a mixed hit/miss batch actually executes and Morton-sorts.
fn sub_batch(req: &BatchRequest, keep: &[usize]) -> BatchRequest {
    match req {
        BatchRequest::Incident(v) => BatchRequest::Incident(keep.iter().map(|&i| v[i]).collect()),
        BatchRequest::Second(v) => BatchRequest::Second(keep.iter().map(|&i| v[i]).collect()),
        BatchRequest::Nearest(v) => BatchRequest::Nearest(keep.iter().map(|&i| v[i]).collect()),
        BatchRequest::Knn(v) => BatchRequest::Knn(keep.iter().map(|&i| v[i]).collect()),
        BatchRequest::Window(v) => BatchRequest::Window(keep.iter().map(|&i| v[i]).collect()),
        BatchRequest::Polygon { points, max_steps } => BatchRequest::Polygon {
            points: keep.iter().map(|&i| points[i]).collect(),
            max_steps: *max_steps,
        },
    }
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
