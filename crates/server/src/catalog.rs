//! The map catalog: one process hosting many maps behind one routing
//! layer and one buffer budget.
//!
//! A [`Catalog`] is a fixed roster of named maps. Each map is either
//! *live* (added pre-built via [`Catalog::add_live`]; never closed,
//! because there is no recipe to get it back) or *buildable* (added via
//! [`Catalog::add_map`] with a deterministic builder closure; opened
//! lazily on first use and closable at any time — its next query simply
//! rebuilds it). The wire envelope's `map` field indexes this roster; a
//! one-map server is a catalog built with [`Catalog::single`], whose map
//! is id `0`.
//!
//! ## Budget and eviction
//!
//! Every open map's buffer pools are attached to one shared
//! [`BufferBudget`], so the process meters *total* page bytes across
//! maps rather than per-map pool caps. After each query the event loop
//! that ran it calls [`Catalog::enforce`]:
//!
//! * **Budget pressure** — while the budget is overshot, a second-chance
//!   clock sweeps the open maps: a map whose reference bit is set (it
//!   was queried since the last sweep) is spared once and its bit
//!   cleared; otherwise the map *sheds* physical page bytes
//!   (`SpatialIndex::shed_cache`). Shedding drops bytes but never
//!   logical residency, so the paper's per-query counters stay
//!   byte-identical to an unpressured single-map run — the contract the
//!   cross-map isolation suite pins.
//! * **Open-map cap** — while more than `max_open` buildable maps are
//!   open, the same clock *closes* cold ones outright (dropping their
//!   pools returns their bytes to the budget); the map reopens lazily
//!   and deterministically on its next query.
//!
//! Maps that have absorbed live mutations are never auto-closed (their
//! builder would rebuild the pristine map), and builderless maps cannot
//! be closed at all; both still shed cache, which is always safe.
//!
//! Per-map [`SharedStats`] survive close/reopen cycles, so `STATS`
//! reports whole-lifetime counters per map alongside the process
//! aggregate.

use crate::protocol::{BudgetWire, CacheWire, ErrorCode, MapInfo, MapStatsWire, Reply};
use crate::reply_cache::{ReplyCache, ReplyCachePool};
use lsdb_core::{LiveIndex, SharedStats, SpatialIndex};
use lsdb_pager::{BufferBudget, CacheStats};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A deterministic recipe for (re)building one map's index. Called
/// under the map's slot lock, possibly many times over the server's
/// life; must yield an identically-behaving index each time.
pub type MapBuilder = Box<dyn Fn() -> io::Result<Box<dyn SpatialIndex>> + Send + Sync>;

/// One catalog entry.
pub struct MapSlot {
    name: String,
    /// `None` for live-added maps — they cannot be rebuilt, so they are
    /// never closed.
    builder: Option<MapBuilder>,
    state: RwLock<Option<LiveIndex>>,
    /// Whole-lifetime per-map counters (survive close/reopen).
    stats: SharedStats,
    /// Second-chance bit: set on every query, cleared by the eviction
    /// clock; a map is only shed/closed after a full unreferenced lap.
    ref_bit: AtomicBool,
    /// The map absorbed a live mutation: auto-close would lose it.
    mutated: AtomicBool,
    /// Epoch-tagged reply cache for this map's queries (shares the
    /// catalog-wide [`ReplyCachePool`] and through it the budget).
    reply_cache: ReplyCache,
}

impl MapSlot {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-map lifetime counters (what `STATS` reports for this map).
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// This map's reply cache (queries probe and fill it).
    pub fn reply_cache(&self) -> &ReplyCache {
        &self.reply_cache
    }

    fn is_open(&self) -> bool {
        self.read_state().is_some()
    }

    /// Shared access to the slot's index. A panic under the write lock
    /// (a map builder that panics inside `open_slot`) poisons it; the
    /// guard is recovered rather than the panic spread to every later
    /// request that walks the roster. That is sound because the only
    /// write sections, `open_slot` and `close_slot`, store a fully built
    /// index or take it out in one step, so the `Option` is valid
    /// whenever a panic can strike.
    fn read_state(&self) -> RwLockReadGuard<'_, Option<LiveIndex>> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the slot's index; poison is recovered as in
    /// [`MapSlot::read_state`].
    fn write_state(&self) -> RwLockWriteGuard<'_, Option<LiveIndex>> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Eviction may not close this slot (it could not come back intact).
    fn unclosable(&self) -> bool {
        self.builder.is_none() || self.mutated.load(Ordering::Relaxed)
    }

    /// Record a live mutation: from here on the slot is pinned open.
    pub(crate) fn mark_mutated(&self) {
        self.mutated.store(true, Ordering::Relaxed);
    }
}

/// Why a catalog operation failed, shaped for the wire.
#[derive(Debug)]
pub enum CatalogError {
    /// No slot with that id / name.
    UnknownMap(String),
    /// The operation is valid but refused (e.g. closing a builderless
    /// or mutated map).
    Refused(String),
    /// Opening the map failed (builder I/O error).
    Io(io::Error),
}

impl CatalogError {
    /// The structured error frame a server answers with.
    pub fn to_reply(&self) -> Reply {
        let (code, message) = match self {
            CatalogError::UnknownMap(what) => {
                (ErrorCode::UnknownMap, format!("unknown map {what}"))
            }
            CatalogError::Refused(why) => (ErrorCode::BadArgument, why.clone()),
            CatalogError::Io(e) => (ErrorCode::Internal, format!("map open failed: {e}")),
        };
        Reply::Error { code, message }
    }
}

/// The roster of maps one server process hosts. Built before binding,
/// immutable in shape afterwards (slots open and close, but the roster
/// itself is fixed — ids are stable for the server's life).
pub struct Catalog {
    slots: Vec<MapSlot>,
    by_name: HashMap<String, u32>,
    budget: Arc<BufferBudget>,
    /// Most *buildable* maps allowed open at once (live maps do not
    /// count — they cannot be closed anyway).
    max_open: usize,
    open_buildable: AtomicUsize,
    /// Clock hand for the second-chance sweeps.
    hand: AtomicUsize,
    /// Process-wide aggregates (every map's queries folded together) —
    /// the aggregate block of `STATS`.
    aggregate: SharedStats,
    /// Byte accounting shared by every slot's reply cache; its cap is
    /// the `serve --cache-bytes` knob (0 = caching off, the default).
    reply_cache_pool: Arc<ReplyCachePool>,
}

impl Catalog {
    /// An empty catalog metering `budget_bytes` of page-pool memory
    /// across all maps (`0` means unlimited) and keeping at most
    /// `max_open` buildable maps open at once.
    pub fn new(budget_bytes: u64, max_open: usize) -> Catalog {
        let budget = if budget_bytes == 0 {
            BufferBudget::unlimited()
        } else {
            BufferBudget::new(budget_bytes)
        };
        let reply_cache_pool = ReplyCachePool::new(Arc::clone(&budget));
        Catalog {
            slots: Vec::new(),
            by_name: HashMap::new(),
            budget,
            max_open: max_open.max(1),
            open_buildable: AtomicUsize::new(0),
            hand: AtomicUsize::new(0),
            aggregate: SharedStats::new(),
            reply_cache_pool,
        }
    }

    /// A one-map catalog: a single live slot named `default` (map id
    /// `0`), unlimited budget — how a server hosts one map.
    pub fn single(live: LiveIndex) -> Catalog {
        let mut catalog = Catalog::new(0, 1);
        catalog.add_live("default", live);
        catalog
    }

    /// Add a pre-built live map. It is open from the start and can
    /// never be closed (there is no builder to reopen it); its pools
    /// are attached to the catalog budget. Returns the map id.
    ///
    /// # Panics
    ///
    /// If `name` is already taken.
    pub fn add_live(&mut self, name: &str, live: LiveIndex) -> u32 {
        let budget = Arc::clone(&self.budget);
        live.with_write(|index| index.attach_budget(&budget));
        self.push(name, None, Some(live))
    }

    /// Add a buildable map, opened lazily on first use. Returns the map
    /// id.
    ///
    /// # Panics
    ///
    /// If `name` is already taken.
    pub fn add_map(&mut self, name: &str, builder: MapBuilder) -> u32 {
        self.push(name, Some(builder), None)
    }

    fn push(&mut self, name: &str, builder: Option<MapBuilder>, live: Option<LiveIndex>) -> u32 {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate map name {name:?}"
        );
        let id = self.slots.len() as u32;
        self.slots.push(MapSlot {
            name: name.to_string(),
            builder,
            state: RwLock::new(live),
            stats: SharedStats::new(),
            ref_bit: AtomicBool::new(false),
            mutated: AtomicBool::new(false),
            reply_cache: ReplyCache::new(Arc::clone(&self.reply_cache_pool)),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shared budget every open map's pools are attached to.
    pub fn budget(&self) -> &Arc<BufferBudget> {
        &self.budget
    }

    /// Size the reply-cache pool shared by every map (`serve
    /// --cache-bytes`). `0` — the default — disables reply caching
    /// entirely; probes and inserts become no-ops.
    pub fn set_reply_cache_bytes(&self, bytes: u64) {
        self.reply_cache_pool.set_cap(bytes);
    }

    /// The process-wide aggregate counters (the aggregate block of
    /// `STATS`).
    pub fn aggregate(&self) -> &SharedStats {
        &self.aggregate
    }

    /// Run `f` against map `map`'s live index, opening it first if cold.
    /// Marks the slot referenced and enforces the budget and open-map
    /// cap *after* `f`'s read guard is gone (so enforcement never
    /// deadlocks with the query and never perturbs its counters).
    pub fn with_live<R>(
        &self,
        map: u32,
        f: impl FnOnce(&MapSlot, &LiveIndex) -> R,
    ) -> Result<R, CatalogError> {
        let slot = self
            .slots
            .get(map as usize)
            .ok_or_else(|| CatalogError::UnknownMap(format!("id {map}")))?;
        slot.ref_bit.store(true, Ordering::Relaxed);
        let out = loop {
            {
                let state = slot.read_state();
                if let Some(live) = state.as_ref() {
                    break f(slot, live);
                }
            }
            // Cold: open under the write lock, then re-check — another
            // thread's enforcement may close it between the two locks.
            self.open_slot(slot).map_err(CatalogError::Io)?;
        };
        self.enforce();
        Ok(out)
    }

    /// Resolve `name` to its id, opening the map if cold. Returns
    /// `(id, segment count)`.
    pub fn open_by_name(&self, name: &str) -> Result<(u32, u64), CatalogError> {
        let &id = self
            .by_name
            .get(name)
            .ok_or_else(|| CatalogError::UnknownMap(format!("{name:?}")))?;
        let len = self.with_live(id, |_, live| live.with_read(|index| index.len() as u64))?;
        Ok((id, len))
    }

    /// Close `name`'s store (its pools return their bytes to the
    /// budget; the map reopens lazily on its next query). Returns
    /// whether it was open. Builderless and mutated maps are refused —
    /// closing them would lose state.
    pub fn close_by_name(&self, name: &str) -> Result<bool, CatalogError> {
        let &id = self
            .by_name
            .get(name)
            .ok_or_else(|| CatalogError::UnknownMap(format!("{name:?}")))?;
        let slot = &self.slots[id as usize];
        if slot.builder.is_none() {
            return Err(CatalogError::Refused(format!(
                "map {name:?} has no builder and cannot be closed"
            )));
        }
        if slot.mutated.load(Ordering::Relaxed) {
            return Err(CatalogError::Refused(format!(
                "map {name:?} holds live mutations and cannot be closed"
            )));
        }
        Ok(self.close_slot(slot))
    }

    /// The roster, in id order.
    pub fn list(&self) -> Vec<MapInfo> {
        self.slots
            .iter()
            .enumerate()
            .map(|(id, slot)| MapInfo {
                id: id as u32,
                open: slot.is_open(),
                name: slot.name.clone(),
            })
            .collect()
    }

    /// The full multi-map statistics reply: aggregate, budget, and one
    /// block per map (cache counters all-zero for cold maps).
    pub fn stats_v3(&self) -> Reply {
        let maps = self
            .slots
            .iter()
            .enumerate()
            .map(|(id, slot)| {
                let state = slot.read_state();
                let cache = state
                    .as_ref()
                    .map(|live| live.with_read(|index| index.cache_stats()))
                    .unwrap_or_default();
                MapStatsWire {
                    id: id as u32,
                    open: state.is_some(),
                    name: slot.name.clone(),
                    queries: slot.stats.queries(),
                    totals: slot.stats.snapshot(),
                    cache: cache_wire(cache),
                    reply_cache: slot.reply_cache.wire(),
                }
            })
            .collect();
        Reply::StatsV3 {
            queries: self.aggregate.queries(),
            totals: self.aggregate.snapshot(),
            budget: BudgetWire {
                total: self.budget.total(),
                used: self.budget.used(),
                admissions: self.budget.admissions(),
                denials: self.budget.denials(),
            },
            maps,
        }
    }

    fn open_slot(&self, slot: &MapSlot) -> io::Result<()> {
        let mut state = slot.write_state();
        if state.is_none() {
            let builder = slot
                .builder
                .as_ref()
                .expect("cold slots always have a builder");
            let mut index = builder()?;
            index.attach_budget(&self.budget);
            *state = Some(LiveIndex::volatile(index));
            self.open_buildable.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn close_slot(&self, slot: &MapSlot) -> bool {
        debug_assert!(slot.builder.is_some());
        let mut state = slot.write_state();
        if state.take().is_some() {
            // Dropping the LiveIndex drops its pools, whose shards
            // release their held bytes back to the budget. The reply
            // cache must go with it: a reopened map starts its epoch
            // counter over at zero, which would otherwise resurrect
            // entries cached under the previous incarnation's epoch 0.
            slot.reply_cache.clear();
            self.open_buildable.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Post-query enforcement (see the module docs): close buildable
    /// maps beyond `max_open`, then shed physical page bytes while the
    /// budget is overshot — both via a second-chance clock over the
    /// roster. Runs with no slot lock held by the caller.
    pub fn enforce(&self) {
        // Fast path: nothing to do, two relaxed loads.
        let over_cap = self.open_buildable.load(Ordering::Relaxed) > self.max_open;
        if !over_cap && self.budget.over_budget() == 0 {
            return;
        }
        let n = self.slots.len();
        // Close cold buildable maps beyond the cap. Two laps: the first
        // spends reference bits, the second closes whatever remains.
        let mut steps = 2 * n;
        while self.open_buildable.load(Ordering::Relaxed) > self.max_open && steps > 0 {
            steps -= 1;
            let slot = &self.slots[self.hand.fetch_add(1, Ordering::Relaxed) % n];
            if slot.unclosable() || !slot.is_open() {
                continue;
            }
            if slot.ref_bit.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            self.close_slot(slot);
        }
        // Shed while over budget. Cached replies go first (they are the
        // cheapest bytes to recompute — one index traversal — whereas a
        // shed page costs a disk read on every future touch), then
        // physical page bytes. Both are safe on every open map (bytes
        // only; logical residency and counters untouched).
        let mut steps = 2 * n;
        while self.budget.over_budget() > 0 && steps > 0 {
            steps -= 1;
            let slot = &self.slots[self.hand.fetch_add(1, Ordering::Relaxed) % n];
            if slot.ref_bit.swap(false, Ordering::Relaxed) {
                continue;
            }
            let overage = self.budget.over_budget();
            if slot.reply_cache.evict_bytes(overage) >= overage {
                break;
            }
            let overage = self.budget.over_budget();
            let state = slot.read_state();
            if let Some(live) = state.as_ref() {
                live.with_read(|index| index.shed_cache(overage));
            }
        }
    }

    /// One line of serving telemetry for `serve --verbose`: budget
    /// residency, page evictions, and reply-cache activity across the
    /// roster.
    pub fn activity_line(&self) -> String {
        let open = self.slots.iter().filter(|s| s.is_open()).count();
        let mut page_evictions = 0u64;
        for slot in &self.slots {
            let state = slot.read_state();
            if let Some(live) = state.as_ref() {
                page_evictions += live.with_read(|index| index.cache_stats()).evictions;
            }
        }
        let (mut hits, mut misses, mut cache_evictions) = (0u64, 0u64, 0u64);
        for slot in &self.slots {
            hits += slot.reply_cache.hits();
            misses += slot.reply_cache.misses();
            cache_evictions += slot.reply_cache.evictions();
        }
        let total = self.budget.total();
        let total = if total == u64::MAX {
            "inf".to_string()
        } else {
            total.to_string()
        };
        format!(
            "maps {open}/{} open · budget {}/{total} B · page evictions {page_evictions} · \
             reply cache {} B, {hits} hits / {misses} misses, {cache_evictions} evictions",
            self.slots.len(),
            self.budget.used(),
            self.reply_cache_pool.used(),
        )
    }
}

fn cache_wire(c: CacheStats) -> CacheWire {
    CacheWire {
        resident_pages: c.resident_pages,
        cached_pages: c.cached_pages,
        capacity_pages: c.capacity_pages,
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_core::{IndexConfig, PolygonalMap, QueryCtx, SpatialIndex};
    use lsdb_geom::{Point, Rect, Segment};
    use lsdb_rtree::RTree;

    fn tiny_map(n: usize, shift: i32) -> PolygonalMap {
        let segs: Vec<Segment> = (0..n)
            .map(|i| {
                let x = ((i * 353) % 4000) as i32 + shift;
                let y = ((i * 991) % 4000) as i32;
                Segment::new(Point::new(x, y), Point::new(x + 19, y + 11))
            })
            .collect();
        PolygonalMap::new("tiny", segs)
    }

    fn builder_for(n: usize, shift: i32) -> MapBuilder {
        Box::new(move || {
            let map = tiny_map(n, shift);
            Ok(Box::new(RTree::bulk_load(
                &map,
                IndexConfig {
                    page_size: 512,
                    pool_pages: 32,
                },
            )) as Box<dyn SpatialIndex>)
        })
    }

    #[test]
    fn lazy_open_close_reopen_yields_identical_answers() {
        let mut catalog = Catalog::new(0, 8);
        let id = catalog.add_map("a", builder_for(300, 0));
        assert!(!catalog.list()[id as usize].open);

        let w = Rect::new(0, 0, 2000, 2000);
        let first = catalog
            .with_live(id, |_, live| {
                live.with_read(|index| {
                    let mut ctx = QueryCtx::new();
                    index.window(w, &mut ctx)
                })
            })
            .unwrap();
        assert!(catalog.list()[id as usize].open);

        assert!(catalog.close_by_name("a").unwrap());
        assert!(!catalog.list()[id as usize].open);
        assert!(!catalog.close_by_name("a").unwrap(), "already cold");

        let again = catalog
            .with_live(id, |_, live| {
                live.with_read(|index| {
                    let mut ctx = QueryCtx::new();
                    index.window(w, &mut ctx)
                })
            })
            .unwrap();
        assert_eq!(first, again, "reopen rebuilds deterministically");
    }

    #[test]
    fn unknown_ids_and_names_are_structured_errors() {
        let mut catalog = Catalog::new(0, 4);
        catalog.add_map("a", builder_for(10, 0));
        assert!(matches!(
            catalog.with_live(7, |_, _| ()),
            Err(CatalogError::UnknownMap(_))
        ));
        assert!(matches!(
            catalog.open_by_name("nope"),
            Err(CatalogError::UnknownMap(_))
        ));
        assert!(matches!(
            catalog.close_by_name("nope"),
            Err(CatalogError::UnknownMap(_))
        ));
    }

    #[test]
    fn builderless_and_mutated_maps_refuse_to_close() {
        let mut catalog = Catalog::new(0, 4);
        let live = {
            let map = tiny_map(50, 0);
            LiveIndex::volatile(Box::new(RTree::bulk_load(&map, IndexConfig::default())))
        };
        catalog.add_live("pinned", live);
        let id = catalog.add_map("b", builder_for(50, 0));
        assert!(matches!(
            catalog.close_by_name("pinned"),
            Err(CatalogError::Refused(_))
        ));
        catalog
            .with_live(id, |slot, _| slot.mark_mutated())
            .unwrap();
        assert!(matches!(
            catalog.close_by_name("b"),
            Err(CatalogError::Refused(_))
        ));
    }

    #[test]
    fn open_map_cap_closes_cold_maps() {
        let mut catalog = Catalog::new(0, 2);
        let ids: Vec<u32> = (0..5)
            .map(|i| catalog.add_map(&format!("m{i}"), builder_for(120, i * 7)))
            .collect();
        for &id in &ids {
            catalog
                .with_live(id, |_, live| live.with_read(|index| index.len()))
                .unwrap();
        }
        let open = catalog.list().iter().filter(|m| m.open).count();
        assert!(
            open <= 3,
            "cap 2 plus at most the one just referenced, got {open}"
        );
    }

    #[test]
    fn budget_pressure_sheds_across_maps() {
        // Two maps whose combined pools overshoot a small budget: after
        // interleaved queries the budget must be respected (physical
        // bytes shed), while answers keep flowing.
        let mut catalog = Catalog::new(48 * 512, 8);
        let a = catalog.add_map("a", builder_for(600, 0));
        let b = catalog.add_map("b", builder_for(600, 311));
        let w = Rect::new(0, 0, 5000, 5000);
        for _ in 0..4 {
            for &id in &[a, b] {
                let got = catalog
                    .with_live(id, |_, live| {
                        live.with_read(|index| {
                            let mut ctx = QueryCtx::new();
                            index.window(w, &mut ctx).len()
                        })
                    })
                    .unwrap();
                assert_eq!(got, 600);
            }
        }
        // Enforcement ran after the last query with both ref bits in
        // play; run a couple of spare laps to let the clock settle.
        catalog.enforce();
        catalog.enforce();
        assert_eq!(
            catalog.budget().over_budget(),
            0,
            "used {} of {}",
            catalog.budget().used(),
            catalog.budget().total()
        );
        if let Reply::StatsV3 { maps, budget, .. } = catalog.stats_v3() {
            assert!(budget.used <= budget.total);
            let evictions: u64 = maps.iter().map(|m| m.cache.evictions).sum();
            assert!(evictions > 0, "pressure must have shed pages");
        } else {
            panic!("stats_v3 must answer StatsV3");
        }
    }
}
