//! Steady-state queries allocate nothing.
//!
//! The traversal engines in `lsdb_core::traverse` keep their stacks,
//! priority queue, and dedup set inside [`QueryCtx`], and each page
//! context keeps its touched-page set across resets, so after a warm-up
//! pass every further
//! `probe_point` / `nearest` / `window_visit` runs without touching the
//! allocator. This file holds exactly one test so the process-global
//! allocation counter sees only its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_queries_do_not_allocate() {
    use lsdb::core::pointgen::{UniformGen, WindowGen};
    use lsdb::core::{IndexConfig, QueryCtx};
    use lsdb_bench::{build_index, IndexKind};

    let spec = lsdb::tiger::CountySpec::new("alloc", lsdb::tiger::CountyClass::Suburban, 1200, 41);
    let map = lsdb::tiger::generate(&spec);
    // A pool large enough to keep every page resident: the steady state
    // under test is the query path, not cache replacement (faulting
    // queries also reach zero allocation once the touched-page sets have
    // grown, but residency makes the assertion independent of the
    // replacement schedule).
    let cfg = IndexConfig {
        page_size: 1024,
        pool_pages: 8192,
    };
    let mut pgen = UniformGen::new(99);
    let probes: Vec<_> = (0..50).map(|_| pgen.next_point()).collect();
    let mut wgen = WindowGen::new(0.001, 98);
    let windows: Vec<_> = (0..50).map(|_| wgen.next_window()).collect();

    // The queries below run through whatever scan ISA the dispatcher
    // picked (AVX2/SSE2 on x86-64 hosts, unless LSDB_FORCE_SCALAR pins
    // the fallback — CI runs this test under both arms), so the
    // zero-allocation guarantee covers the SIMD kernels: movemask
    // survivor extraction works entirely in registers and stack arrays.
    let isa = lsdb::core::scan::active_isa();
    assert!(isa.available());
    eprintln!("steady-state alloc test scanning via {}", isa.label());

    for kind in [
        IndexKind::RStar,
        IndexKind::RPlus,
        IndexKind::Pmr,
        IndexKind::Grid(32),
    ] {
        let idx = build_index(kind, &map, cfg);
        let mut ctx = QueryCtx::new();
        let mut sink = 0usize;
        // The sink only defeats dead-code elimination; wrapping arithmetic
        // because LocId values use the full u64 range.
        let pass = |ctx: &mut QueryCtx, sink: &mut usize| {
            for &p in &probes {
                *sink = sink.wrapping_add(idx.probe_point(p, ctx).0 as usize);
                *sink = sink.wrapping_add(idx.nearest(p, ctx).map_or(0, |id| id.index()));
                // Drives the scan kernels plus the segment mini-cache
                // (incident lookups resolve every surviving entry).
                idx.find_incident_visit(p, ctx, &mut |id| {
                    *sink = sink.wrapping_add(id.index());
                });
            }
            for &w in &windows {
                idx.window_visit(w, ctx, &mut |id| *sink = sink.wrapping_add(id.index()));
            }
        };
        // Warm-up sizes the context's scratch buffers.
        pass(&mut ctx, &mut sink);
        pass(&mut ctx, &mut sink);
        let before = ALLOCS.load(Ordering::Relaxed);
        pass(&mut ctx, &mut sink);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{kind:?}: steady-state queries must not allocate (sink={sink})"
        );
    }
}
