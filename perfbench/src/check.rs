//! Correctness. Every served reply must equal, byte for byte, what the
//! reference catalog computes in-process for the same request: the ids
//! and the paper's counters alike. The reference itself must agree with
//! the brute-force oracle and, across the three structures, with itself.

use crate::load::Record;
use crate::setup::MAP_NAMES;
use crate::workload::Plan;
use lsdb_core::{brute, queries, PolygonalMap, QueryCtx, SegId, SpatialIndex};
use lsdb_server::{Catalog, Reply, Request};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;

/// Threads computing reference replies.
const CHECK_THREADS: usize = 2;

/// Digest of a reply's encoded bytes: its ids and its counters.
pub fn digest(reply: &Reply) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(&reply.encode());
    h.finish()
}

/// Execute one spatial query the way the server's executor does: on a
/// reset context, counters snapshotted after the answer.
pub fn execute(index: &dyn SpatialIndex, req: &Request, ctx: &mut QueryCtx) -> Reply {
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
        ref other => panic!("workloads send spatial queries only, not {other:?}"),
    }
}

/// Catalog ids of [`MAP_NAMES`], in order.
pub fn map_ids(catalog: &Catalog) -> [u32; 3] {
    MAP_NAMES.map(|name| {
        catalog
            .open_by_name(name)
            .expect("the catalog hosts every benchmark map")
            .0
    })
}

/// The reference digest of the request `key` names.
fn expected(reference: &Catalog, ids: &[u32; 3], plan: &Plan, key: u64, ctx: &mut QueryCtx) -> u64 {
    let frame = plan.frame(key);
    let reply = reference
        .with_live(ids[frame.map], |_, live| {
            live.with_read(|index| execute(index, &frame.request, ctx))
        })
        .expect("reference map is open");
    digest(&reply)
}

/// Compare every served reply with the reference. Returns the number of
/// requests that failed or differ, noting the first few in `problems`.
pub fn served_replies(
    reference: &Catalog,
    plan: &Plan,
    records: &[Record],
    problems: &mut Vec<String>,
) -> u64 {
    let ids = map_ids(reference);
    let mut keys: Vec<u64> = records.iter().map(|r| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    let chunk = keys.len().div_ceil(CHECK_THREADS).max(1);
    let expected: HashMap<u64, u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(chunk)
            .map(|keys| {
                let ids = &ids;
                scope.spawn(move || {
                    let mut ctx = QueryCtx::new();
                    keys.iter()
                        .map(|&key| (key, expected(reference, ids, plan, key, &mut ctx)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    });
    let mut failed = 0u64;
    for r in records {
        if r.digest != Some(expected[&r.key]) {
            failed += 1;
            if problems.len() < 8 {
                problems.push(format!(
                    "request {} (key {}) on connection {}: served reply differs from the reference",
                    r.seq, r.key, r.conn
                ));
            }
        }
    }
    failed
}

/// Check the reference against ground truth on the first `keys` requests:
/// the three structures must return the same answers, and those answers
/// must match the brute-force oracle where one exists (queries 1, 2, 3
/// and 5; query 4 walks are compared across structures).
pub fn oracle(
    reference: &Catalog,
    plan: &Plan,
    map: &PolygonalMap,
    keys: u64,
    problems: &mut Vec<String>,
) {
    let ids = map_ids(reference);
    let mut ctx = QueryCtx::new();
    for key in 0..keys {
        let req = plan.frame(key).request;
        let answers: Vec<Answer> = ids
            .iter()
            .map(|&id| {
                let reply = reference
                    .with_live(id, |_, live| {
                        live.with_read(|index| execute(index, &req, &mut ctx))
                    })
                    .expect("reference map is open");
                Answer::of(&reply)
            })
            .collect();
        if answers.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!("structures disagree on {req:?}"));
            continue;
        }
        if let Some(truth) = Answer::brute(map, &req) {
            if truth != answers[0] && !same_nearest_distance(map, &req, &answers[0]) {
                problems.push(format!(
                    "answer to {req:?} differs from the brute-force oracle"
                ));
            }
        }
    }
}

/// A reply's answer without its counters, set answers sorted.
#[derive(PartialEq, Eq, Debug)]
enum Answer {
    Set(Vec<SegId>),
    One(Option<SegId>),
    Walk(Option<(Vec<SegId>, bool)>),
}

impl Answer {
    fn of(reply: &Reply) -> Answer {
        match reply {
            Reply::Segs { ids, .. } => Answer::Set(brute::sorted(ids.clone())),
            Reply::Nearest { id, .. } => Answer::One(*id),
            Reply::Polygon { walk, .. } => Answer::Walk(walk.clone()),
            other => panic!("not a query answer: {other:?}"),
        }
    }

    fn brute(map: &PolygonalMap, req: &Request) -> Option<Answer> {
        Some(match *req {
            Request::Incident(p) => Answer::Set(brute::incident(map, p)),
            Request::Second { id, at } => Answer::Set(brute::second_endpoint(map, id, at)),
            Request::Window(w) => Answer::Set(brute::window(map, w)),
            Request::Nearest(p) => Answer::One(brute::nearest(map, p).map(|(id, _)| id)),
            _ => return None,
        })
    }
}

/// Nearest-segment ties may resolve to different (equally near) ids, so
/// a nearest answer is right when its distance is the minimum.
fn same_nearest_distance(map: &PolygonalMap, req: &Request, answer: &Answer) -> bool {
    match (req, answer) {
        (Request::Nearest(p), Answer::One(Some(id))) => {
            brute::nearest(map, *p).map(|(_, d)| d)
                == Some(map.segments[id.index()].dist2_point(*p))
        }
        _ => false,
    }
}
