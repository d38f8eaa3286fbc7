//! Differential tests for the SIMD scan kernels: both ISA arms the host
//! can run (scalar always; AVX2 where detected) must emit identical
//! survivors, in identical storage order, with identical scan counts —
//! over randomized pages and over the adversarial shapes the vector path
//! could plausibly get wrong:
//!
//! * ragged tails (`n % 8 != 0` and sub-block pages that never enter the
//!   vector loop at all),
//! * zero-area rectangles (degenerate on one or both axes — axis-aligned
//!   segments produce these constantly),
//! * `i32::MIN` / `i32::MAX` coordinates for the comparison predicates
//!   (closed-bound compares are exact at the extremes) and the documented
//!   `±2^30` domain edge for the distance kernel,
//! * empty nodes and full pages at the paper's 50-entry capacity.
//!
//! Every arm is checked against the naive per-entry `Rect` predicates,
//! the scalar arm's own output included, so the AVX2 arm agrees with the
//! scalar arm and both chain back to the geometry crate's single source
//! of truth.

use lsdb_core::rectnode::{Entry, RectNode, ENTRY, HDR};
use lsdb_core::scan::{
    scan_containing_point_with, scan_intersecting_with, scan_min_dist2_with, EntryScan, Isa,
};
use lsdb_geom::{Point, Rect};
use lsdb_rng::StdRng;

/// Every ISA the host can actually execute. Scalar is always present, so
/// the agreement checks are non-trivial even on a runner without AVX2.
fn isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|i| i.available()).collect()
}

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

/// Collect (survivor, order) from the intersect kernel on one ISA.
fn run_intersect(isa: Isa, buf: &[u8], w: &Rect) -> (Vec<Entry>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_intersecting_with(isa, &scan, w, |e| got.push(e));
    (got, n)
}

fn run_contain(isa: Isa, buf: &[u8], p: Point) -> (Vec<Entry>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_containing_point_with(isa, &scan, p, |e| got.push(e));
    (got, n)
}

fn run_dist2(isa: Isa, buf: &[u8], p: Point) -> (Vec<(Entry, i64)>, usize) {
    let scan = EntryScan::of_node(buf);
    let mut got = Vec::new();
    let n = scan_min_dist2_with(isa, &scan, p, |e, d| got.push((e, d)));
    (got, n)
}

/// Assert all host ISAs agree with the scalar arm on all three kernels,
/// and that the scalar arm agrees with the naive geometry predicates.
fn assert_all_agree(entries: &[Entry], w: &Rect, p: Point, label: &str) {
    let buf = page_of(entries);
    let n = entries.len();

    let naive_w: Vec<Entry> = entries
        .iter()
        .copied()
        .filter(|e| w.intersects(&e.rect))
        .collect();
    let naive_p: Vec<Entry> = entries
        .iter()
        .copied()
        .filter(|e| e.rect.contains_point(p))
        .collect();
    let naive_d: Vec<(Entry, i64)> = entries
        .iter()
        .copied()
        .map(|e| (e, e.rect.dist2_point(p)))
        .collect();

    for isa in isas() {
        let (got, scanned) = run_intersect(isa, &buf, w);
        assert_eq!(scanned, n, "{label}: intersect scan count on {isa:?}");
        assert_eq!(got, naive_w, "{label}: intersect survivors on {isa:?}");

        let (got, scanned) = run_contain(isa, &buf, p);
        assert_eq!(scanned, n, "{label}: contain scan count on {isa:?}");
        assert_eq!(got, naive_p, "{label}: contain survivors on {isa:?}");

        let (got, scanned) = run_dist2(isa, &buf, p);
        assert_eq!(scanned, n, "{label}: dist2 scan count on {isa:?}");
        assert_eq!(got, naive_d, "{label}: dist2 values on {isa:?}");
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
            let entries: Vec<Entry> = (0..n)
                .map(|i| {
                    let x0 = rng.gen_range(-2000..2000);
                    let y0 = rng.gen_range(-2000..2000);
                    // Degenerate on either axis with high probability.
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
                        child: i as u32,
                    }
                })
                .collect();
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
        let naive: Vec<Entry> = entries
            .iter()
            .copied()
            .filter(|e| w.intersects(&e.rect))
            .collect();
        for isa in isas() {
            let (got, scanned) = run_intersect(isa, &buf, w);
            assert_eq!(scanned, entries.len());
            assert_eq!(got, naive, "window {w:?} on {isa:?}");
        }
    }
    for p in points {
        let naive: Vec<Entry> = entries
            .iter()
            .copied()
            .filter(|e| e.rect.contains_point(p))
            .collect();
        for isa in isas() {
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
        let naive: Vec<(Entry, i64)> = entries
            .iter()
            .copied()
            .map(|e| (e, e.rect.dist2_point(p)))
            .collect();
        for isa in isas() {
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
