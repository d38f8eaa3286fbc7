//! Differential tests for the SIMD scan kernels: every ISA in
//! [`Isa::ALL`] must emit the same survivors' child ids, in storage order,
//! with the same scan counts — an ISA the host lacks runs the scalar arm,
//! so it is held to the same answers — over randomized pages and over the
//! adversarial shapes the vector path could plausibly get wrong:
//!
//! * ragged tails (`n % 8 != 0`), which the AVX2 arm runs as one masked
//!   8-wide block: every count from 0 to 50 on the paper's 1 KB page, and
//!   pages too small for that block's loads (capacity below 7), which
//!   keep the per-entry tail,
//! * stale entries past `count` — a swap-remove leaves the old last entry
//!   behind, and the masked block loads it — that would pass the
//!   predicate yet must never be emitted,
//! * zero-area rectangles (degenerate on one or both axes — axis-aligned
//!   segments produce these constantly),
//! * `i32::MIN` / `i32::MAX` coordinates for the comparison predicates
//!   (closed-bound compares are exact at the extremes) and the documented
//!   `±2^30` domain edge for the distance kernel,
//! * empty nodes and full pages at the paper's 50-entry capacity.
//!
//! Every arm is checked against the naive per-entry `Rect` predicates
//! (child ids and scan counts), the scalar arm's own output included, so
//! the AVX2 arm agrees with the scalar arm and both chain back to the
//! geometry crate's single source of truth.

use lsdb_core::rectnode::{Entry, RectNode, ENTRY, HDR};
use lsdb_core::scan::{
    scan_containing_point_with, scan_intersecting_with, scan_min_dist2_with, EntryScan, Isa,
};
use lsdb_geom::{Point, Rect};
use lsdb_rng::StdRng;

fn page_of(entries: &[Entry]) -> Vec<u8> {
    let mut buf = vec![0u8; HDR + entries.len().max(1) * ENTRY];
    RectNode::init(&mut buf, true);
    for &e in entries {
        RectNode::push(&mut buf, e);
    }
    buf
}

fn e(x0: i32, y0: i32, x1: i32, y1: i32, child: u32) -> Entry {
    Entry {
        rect: Rect::new(x0, y0, x1, y1),
        child,
    }
}

/// Collect (survivor child ids, scan count) from the intersect kernel on
/// one ISA.
fn run_intersect(isa: Isa, buf: &[u8], w: &Rect) -> (Vec<u32>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_intersecting_with(isa, &scan, w, |c| got.push(c));
    (got, n)
}

fn run_contain(isa: Isa, buf: &[u8], p: Point) -> (Vec<u32>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_containing_point_with(isa, &scan, p, |c| got.push(c));
    (got, n)
}

fn run_dist2(isa: Isa, buf: &[u8], p: Point) -> (Vec<(u32, i64)>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_min_dist2_with(isa, &scan, p, |c, d| got.push((c, d)));
    (got, n)
}

fn naive_intersect(entries: &[Entry], w: &Rect) -> Vec<u32> {
    entries
        .iter()
        .filter(|e| w.intersects(&e.rect))
        .map(|e| e.child)
        .collect()
}

fn naive_contain(entries: &[Entry], p: Point) -> Vec<u32> {
    entries
        .iter()
        .filter(|e| e.rect.contains_point(p))
        .map(|e| e.child)
        .collect()
}

fn naive_dist2(entries: &[Entry], p: Point) -> Vec<(u32, i64)> {
    entries
        .iter()
        .map(|e| (e.child, e.rect.dist2_point(p)))
        .collect()
}

/// Assert every ISA agrees with the naive geometry predicates on all
/// three kernels over the node page `buf`, whose live entries are
/// `entries` (whatever lies past them in the page).
fn assert_page_agrees(buf: &[u8], entries: &[Entry], w: &Rect, p: Point, label: &str) {
    let n = entries.len();
    let (naive_w, naive_p, naive_d) = (
        naive_intersect(entries, w),
        naive_contain(entries, p),
        naive_dist2(entries, p),
    );
    for isa in Isa::ALL {
        let (got, scanned) = run_intersect(isa, buf, w);
        assert_eq!(scanned, n, "{label}: intersect scan count on {isa:?}");
        assert_eq!(got, naive_w, "{label}: intersect survivors on {isa:?}");

        let (got, scanned) = run_contain(isa, buf, p);
        assert_eq!(scanned, n, "{label}: contain scan count on {isa:?}");
        assert_eq!(got, naive_p, "{label}: contain survivors on {isa:?}");

        let (got, scanned) = run_dist2(isa, buf, p);
        assert_eq!(scanned, n, "{label}: dist2 scan count on {isa:?}");
        assert_eq!(got, naive_d, "{label}: dist2 values on {isa:?}");
    }
}

/// [`assert_page_agrees`] on a page holding exactly `entries`.
fn assert_all_agree(entries: &[Entry], w: &Rect, p: Point, label: &str) {
    assert_page_agrees(&page_of(entries), entries, w, p, label);
}

/// A random entry around the origin, degenerate on either axis with high
/// probability.
fn random_entry(rng: &mut StdRng, child: u32) -> Entry {
    let x0 = rng.gen_range(-2000..2000);
    let y0 = rng.gen_range(-2000..2000);
    let w = if rng.gen_bool(0.4) {
        0
    } else {
        rng.gen_range(0..300)
    };
    let h = if rng.gen_bool(0.4) {
        0
    } else {
        rng.gen_range(0..300)
    };
    Entry {
        rect: Rect::new(x0, y0, x0 + w, y0 + h),
        child,
    }
}

#[test]
fn every_count_on_a_1k_page_agrees_across_isas() {
    // The paper's 1 KB page (capacity 50): counts 0..=50 give every tail
    // length 0..=7, the last ones reaching the end of the rectangle lanes.
    // The page is filled to capacity and then cut back by swap-removes,
    // so the bytes past `count` hold real (stale) entries.
    let mut rng = StdRng::seed_from_u64(0x1C0);
    for n in 0..=50usize {
        for round in 0..4 {
            let mut buf = vec![0u8; 1024];
            RectNode::init(&mut buf, true);
            let mut entries: Vec<Entry> = (0..50).map(|i| random_entry(&mut rng, i)).collect();
            for &e in &entries {
                RectNode::push(&mut buf, e);
            }
            while entries.len() > n {
                let i = rng.gen_range(0..entries.len());
                RectNode::remove_at(&mut buf, i);
                entries.swap_remove(i);
            }
            assert_eq!(RectNode::entries(&buf), entries);
            let w = Rect::new(
                rng.gen_range(-2000..0),
                rng.gen_range(-2000..0),
                rng.gen_range(0..2000),
                rng.gen_range(0..2000),
            );
            let p = Point::new(rng.gen_range(-2500..2500), rng.gen_range(-2500..2500));
            assert_page_agrees(&buf, &entries, &w, p, &format!("1K n={n} round={round}"));
        }
    }
}

#[test]
fn stale_entries_past_the_count_are_never_emitted() {
    // Every entry contains the probe point and meets the window, so each
    // stale entry a swap-remove leaves behind would pass the predicate if
    // a kernel looked past `count`. Capacities 1..=60 cover the scalar
    // tail (below 7) and the masked block (7 and up).
    let p = Point::new(10, 10);
    let w = Rect::new(0, 0, 20, 20);
    for cap in 1..=60usize {
        let full: Vec<Entry> = (0..cap as u32)
            .map(|c| e(c as i32 - 100, 0, 100, 20, c))
            .collect();
        for n in 0..cap {
            let mut buf = vec![0u8; HDR + cap * ENTRY];
            RectNode::init(&mut buf, true);
            for &x in &full {
                RectNode::push(&mut buf, x);
            }
            // Remove from the end: the removed entries stay in the lanes.
            for i in (n..cap).rev() {
                RectNode::remove_at(&mut buf, i);
            }
            let live = &full[..n];
            assert_eq!(RectNode::entries(&buf), live);
            assert_page_agrees(&buf, live, &w, p, &format!("cap={cap} n={n}"));
            let ids: Vec<u32> = (0..n as u32).collect();
            for isa in Isa::ALL {
                assert_eq!(run_contain(isa, &buf, p).0, ids, "cap={cap} n={n} {isa:?}");
                assert_eq!(
                    run_intersect(isa, &buf, &w).0,
                    ids,
                    "cap={cap} n={n} {isa:?}"
                );
            }
        }
    }
}

#[test]
fn pages_below_capacity_seven_agree_across_isas() {
    // Exact-size pages of capacity 1..=6. On the smallest of them an
    // 8-wide load of the `yhi` lane would run past the buffer's end, so
    // the AVX2 arm keeps the per-entry tail there (which pages do is
    // pinned by the scan module's own unit test); whichever tail runs,
    // the answers must be the naive ones.
    let mut rng = StdRng::seed_from_u64(0x5A11);
    for cap in 1..=6usize {
        for n in 0..=cap {
            for round in 0..16 {
                let mut buf = vec![0u8; HDR + cap * ENTRY];
                RectNode::init(&mut buf, true);
                let entries: Vec<Entry> =
                    (0..n as u32).map(|c| random_entry(&mut rng, c)).collect();
                for &x in &entries {
                    RectNode::push(&mut buf, x);
                }
                let w = Rect::new(
                    rng.gen_range(-2000..0),
                    rng.gen_range(-2000..0),
                    rng.gen_range(0..2000),
                    rng.gen_range(0..2000),
                );
                let p = match entries.first() {
                    Some(x) if round % 2 == 0 => x.rect.min,
                    _ => Point::new(rng.gen_range(-2500..2500), rng.gen_range(-2500..2500)),
                };
                let label = format!("cap={cap} n={n} round={round}");
                assert_page_agrees(&buf, &entries, &w, p, &label);
            }
        }
    }
}

#[test]
fn randomized_pages_agree_across_isas() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    // Sizes straddle the vector width: sub-block, exact blocks, every tail
    // residue mod 8, and the paper's 50-entry full page.
    for n in [
        0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 23, 31, 32, 33, 50,
    ] {
        for round in 0..8 {
            let entries: Vec<Entry> = (0..n as u32).map(|i| random_entry(&mut rng, i)).collect();
            let w = Rect::new(
                rng.gen_range(-2000..0),
                rng.gen_range(-2000..0),
                rng.gen_range(0..2000),
                rng.gen_range(0..2000),
            );
            let p = Point::new(rng.gen_range(-2500..2500), rng.gen_range(-2500..2500));
            assert_all_agree(&entries, &w, p, &format!("n={n} round={round}"));
        }
    }
}

#[test]
fn extreme_coordinates_intersect_and_contain() {
    // Comparison predicates are exact over the whole i32 range: a page
    // mixing world-sized rects with i32::MIN/MAX corners, probed by
    // extreme windows and points. 9 entries = one full AVX2 block + tail.
    let entries = vec![
        e(i32::MIN, i32::MIN, i32::MAX, i32::MAX, 0), // everything
        e(i32::MIN, i32::MIN, i32::MIN, i32::MIN, 1), // min corner point
        e(i32::MAX, i32::MAX, i32::MAX, i32::MAX, 2), // max corner point
        e(i32::MIN, 0, i32::MAX, 0, 3),               // full-width hairline
        e(0, i32::MIN, 0, i32::MAX, 4),               // full-height hairline
        e(-5, -5, 5, 5, 5),
        e(i32::MAX - 10, i32::MIN, i32::MAX, i32::MIN + 10, 6),
        e(0, 0, 0, 0, 7),
        e(i32::MIN + 1, i32::MAX - 1, i32::MIN + 1, i32::MAX, 8),
    ];
    let windows = [
        Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX),
        Rect::new(i32::MIN, i32::MIN, i32::MIN, i32::MIN),
        Rect::new(i32::MAX, i32::MAX, i32::MAX, i32::MAX),
        Rect::new(-1, -1, 1, 1),
        Rect::new(i32::MAX - 5, i32::MIN, i32::MAX, i32::MIN + 5),
    ];
    let points = [
        Point::new(i32::MIN, i32::MIN),
        Point::new(i32::MAX, i32::MAX),
        Point::new(0, 0),
        Point::new(i32::MIN, i32::MAX),
    ];
    // Distance is domain-restricted (differences must fit i32), so pair
    // the extreme windows/points with an in-domain probe for dist2 by
    // checking intersect/contain only here.
    let buf = page_of(&entries);
    for w in &windows {
        let naive = naive_intersect(&entries, w);
        for isa in Isa::ALL {
            let (got, scanned) = run_intersect(isa, &buf, w);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "window {w:?} on {isa:?}");
        }
    }
    for p in points {
        let naive = naive_contain(&entries, p);
        for isa in Isa::ALL {
            let (got, scanned) = run_contain(isa, &buf, p);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "point {p:?} on {isa:?}");
        }
    }
}

#[test]
fn dist2_agrees_at_the_domain_edge() {
    // The widest domain Rect::dist2_point documents: per-axis differences
    // fit i32. ±2^30 rect corners probed from the opposite corner give
    // differences of 2^31 - 2 — the extreme the SIMD subtract must hit
    // without wrapping.
    const M: i32 = (1 << 30) - 1;
    let entries: Vec<Entry> = vec![
        e(-M, -M, -M, -M, 0),
        e(M, M, M, M, 1),
        e(-M, -M, M, M, 2),
        e(-M, M - 1, -M + 1, M, 3),
        e(0, 0, 0, 0, 4),
        e(-3, -4, 3, 4, 5),
        e(M - 7, -M, M, -M + 7, 6),
        e(-1, -M, 1, M, 7),
        e(5, 5, 6, 6, 8), // tail entry past the 8-wide block
    ];
    let buf = page_of(&entries);
    for p in [
        Point::new(M, M),
        Point::new(-M, -M),
        Point::new(M, -M),
        Point::new(0, 0),
        Point::new(-M, M),
    ] {
        let naive = naive_dist2(&entries, p);
        for isa in Isa::ALL {
            let (got, scanned) = run_dist2(isa, &buf, p);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "probe {p:?} on {isa:?}");
        }
    }
}

#[test]
fn empty_and_single_entry_nodes() {
    let w = Rect::new(-10, -10, 10, 10);
    let p = Point::new(0, 0);
    assert_all_agree(&[], &w, p, "empty");
    assert_all_agree(&[e(0, 0, 0, 0, 0)], &w, p, "single hit");
    assert_all_agree(&[e(100, 100, 200, 200, 0)], &w, p, "single miss");
}
