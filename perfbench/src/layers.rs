//! Traced per-layer attribution.
//!
//! The served run times each request from the client. A traced run then
//! replays the measured requests in-process against the reference catalog,
//! calling the server's layers in the order its event loop and executor
//! do, with a span around each call:
//!
//! | span           | layer called                                             |
//! |----------------|----------------------------------------------------------|
//! | `client_codec` | request encode and reply decode, as the client does them |
//! | `decode`       | request frame decode (`protocol::decode_request`)        |
//! | `catalog`      | map routing, slot lock and budget enforcement (`Catalog::with_live`) |
//! | `cache_probe`  | reply-cache key and probe; on a hit, the counter fold    |
//! | `index_lock`   | the live index's read lock (`LiveIndex::with_read`)      |
//! | `traversal`    | the spatial query itself (`lsdb_core`)                   |
//! | `cache_fill`   | counter fold, reply encode and cache insert after a miss |
//! | `reply_encode` | the reply envelope                                       |
//!
//! Every span of one request carries the request's stream index;
//! `catalog` is the parent of the four spans inside it, `request` of the
//! rest. A layer's time is its self time: its spans minus their child
//! spans. What the replay cannot see — socket I/O, the event loop, executor
//! queue wait and thread wake-ups under the workload's concurrency — is
//! the served round trip minus every replayed layer, so the reported
//! layers add up to the mean round trip (the remainder also absorbs the
//! replay's own span bookkeeping, tens of nanoseconds). Spans stay in
//! memory and are written as a Chrome trace-event file when the run ends.

use crate::check;
use crate::load::{Record, Served};
use crate::workload::Plan;
use lsdb_core::QueryCtx;
use lsdb_server::protocol::{decode_reply, decode_request};
use lsdb_server::{Catalog, Reply};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock cap on re-warming the reference reply cache with the
/// warm-up requests, and on the traced replay of measured requests.
const WARM_BUDGET: Duration = Duration::from_millis(1500);
const REPLAY_BUDGET: Duration = Duration::from_secs(2);
/// Most measured requests replayed: an even sample across the window.
const MAX_REPLAYED: usize = 10_000;

/// The per-layer time metrics, in µs per request, in reporting order.
const LAYERS: [(&str, &str); 8] = [
    ("client_codec", "client_codec_us"),
    ("decode", "decode_us"),
    ("catalog", "catalog_us"),
    ("cache_probe", "cache_probe_us"),
    ("index_lock", "index_lock_us"),
    ("traversal", "traversal_us"),
    ("cache_fill", "cache_fill_us"),
    ("reply_encode", "reply_encode_us"),
];

struct Span {
    request: u64,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Off while re-warming: layers run, nothing is recorded.
    on: bool,
}

impl Tracer {
    fn open(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            request,
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        if self.on {
            self.spans[span].end = self.origin.elapsed();
        }
    }

    fn time<R>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(request, name, Some(parent));
        let out = f();
        self.close(span);
        out
    }
}

/// A reply as the executor hands it back: computed, or a cached body.
enum Outcome {
    Fresh(Reply),
    Cached(Arc<[u8]>),
}

/// Per-layer means over the replayed requests.
pub struct Breakdown {
    /// `(metric name, µs per request)`: the served round trip, the
    /// unseen transport-and-queueing remainder, then [`LAYERS`].
    pub times: Vec<(&'static str, f64)>,
    pub requests: usize,
}

/// Replay the served requests through the reference catalog's layers and
/// attribute the mean served round trip to them. Writes the spans to
/// `trace_file`.
pub fn attribute(
    reference: &Catalog,
    plan: &Plan,
    served: &Served,
    trace_file: &Path,
) -> std::io::Result<Breakdown> {
    let ids = check::map_ids(reference);
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        on: false,
    };
    let mut ctx = QueryCtx::new();
    // The served cache was warm when measuring began; so is the replay's.
    let warm_start = Instant::now();
    for r in served.records.iter().filter(|r| !r.measured()) {
        if warm_start.elapsed() >= WARM_BUDGET {
            break;
        }
        replay(&mut tracer, reference, plan, &ids, r, &mut ctx);
    }
    tracer.on = true;
    let measured: Vec<&Record> = served.records.iter().filter(|r| r.measured()).collect();
    let stride = measured.len().div_ceil(MAX_REPLAYED).max(1);
    let replay_start = Instant::now();
    let mut replayed: Vec<&Record> = Vec::new();
    for &r in measured.iter().step_by(stride) {
        if replay_start.elapsed() >= REPLAY_BUDGET {
            break;
        }
        replay(&mut tracer, reference, plan, &ids, r, &mut ctx);
        replayed.push(r);
    }
    if replayed.is_empty() {
        return Err(std::io::Error::other("no measured request to replay"));
    }

    let n = replayed.len() as f64;
    let rtt_us = replayed.iter().map(|r| r.rtt.as_secs_f64()).sum::<f64>() * 1e6 / n;
    let self_us = self_times(&tracer.spans);
    let mut times = vec![("rtt_us", rtt_us), ("transport_queue_us", 0.0)];
    let mut layers_us = 0.0;
    for (span, metric) in LAYERS {
        let us = self_us.get(span).copied().unwrap_or(0.0) / n;
        layers_us += us;
        times.push((metric, us));
    }
    times[1].1 = rtt_us - layers_us;
    write_trace(trace_file, &tracer.spans, &replayed)?;
    Ok(Breakdown {
        times,
        requests: replayed.len(),
    })
}

/// Summed self time per span name, in µs.
fn self_times(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    let mut out = HashMap::new();
    for (s, c) in spans.iter().zip(child) {
        *out.entry(s.name).or_insert(0.0) +=
            (s.end - s.start).saturating_sub(c).as_secs_f64() * 1e6;
    }
    out
}

/// One request through the layers, in the server's order.
fn replay(
    t: &mut Tracer,
    catalog: &Catalog,
    plan: &Plan,
    ids: &[u32; 3],
    record: &Record,
    ctx: &mut QueryCtx,
) {
    let seq = record.seq;
    let frame = plan.frame(record.key);
    let corr = seq as u32;
    let root = t.open(seq, "request", None);
    let bytes = t.time(seq, "client_codec", root, || {
        frame.request.encode_v3(corr, ids[frame.map])
    });
    let decoded = t
        .time(seq, "decode", root, || decode_request(&bytes))
        .expect("benchmark requests decode");
    let cat = t.open(seq, "catalog", Some(root));
    let outcome = catalog
        .with_live(decoded.map, |slot, live| {
            let cache = slot.reply_cache();
            let fold = |stats| {
                slot.stats().add(stats);
                catalog.aggregate().add(stats);
            };
            let req = &decoded.request;
            let probe = t.open(seq, "cache_probe", Some(cat));
            let key = cache.on().then(|| req.encode());
            let hit = key.as_deref().and_then(|k| cache.probe(live.epoch(), k));
            if let Some((_, stats)) = &hit {
                fold(*stats);
            }
            t.close(probe);
            if let Some((body, _)) = hit {
                return Outcome::Cached(body);
            }
            let lock = t.open(seq, "index_lock", Some(cat));
            live.with_read(|index| {
                t.close(lock);
                let epoch = live.epoch();
                let reply = t.time(seq, "traversal", cat, || check::execute(index, req, ctx));
                t.time(seq, "cache_fill", cat, || {
                    let stats = reply.stats().expect("query replies carry counters");
                    fold(stats);
                    if let Some(key) = &key {
                        cache.insert(epoch, key, reply.encode().into(), stats);
                    }
                });
                Outcome::Fresh(reply)
            })
        })
        .expect("reference map is open");
    t.close(cat);
    let payload = t.time(seq, "reply_encode", root, || match outcome {
        Outcome::Fresh(reply) => reply.encode_v3(corr),
        Outcome::Cached(body) => Reply::envelope_v3(corr, &body),
    });
    t.time(seq, "client_codec", root, || decode_reply(&payload))
        .expect("replies decode");
    t.close(root);
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): process 0 holds
/// the served round trips of the replayed requests, one thread per client
/// connection; process 1 holds the in-process replay's layer spans.
fn write_trace(path: &Path, spans: &[Span], replayed: &[&Record]) -> std::io::Result<()> {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for r in replayed {
        let _ = writeln!(
            out,
            "{{\"name\":\"rtt\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{}}}}},",
            r.conn,
            us(r.sent),
            us(r.rtt),
            r.seq
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"span\":{i},\"parent\":{parent}}}}}",
            s.name,
            us(s.start),
            us(s.end - s.start),
            s.request
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
