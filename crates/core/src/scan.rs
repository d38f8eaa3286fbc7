//! Hot-path scan kernels: zero-copy node views and explicit SIMD
//! geometric predicates over the structure-of-arrays page layout.
//!
//! Every query in this workspace bottoms out in the same inner loop —
//! "walk the entries of one node page, test each bounding rectangle
//! against the query region" — and the paper's wall-clock numbers are
//! dominated by it. This module centralizes that loop in three kernels
//! ([`scan_intersecting`], [`scan_containing_point`], [`scan_min_dist2`])
//! that
//!
//! * read the page bytes **in place** through an [`EntryScan`] view over
//!   the v2 lane layout of [`RectNode`] pages (no intermediate
//!   `Vec<Entry>`), and
//! * evaluate the rectangle predicate with explicit `std::arch` AVX2
//!   intrinsics: 8 entries per step, each step one vector compare per
//!   lane followed by **movemask survivor extraction** — the surviving
//!   entries drop out of a single scalar bit-walk over the mask, in
//!   storage order. This is the SIMD-ified R-tree scanning design: a
//!   structure-of-arrays node layout turns each predicate operand into one
//!   contiguous vector load, where the old interleaved layout needed a
//!   gather.
//!
//! Each kernel runs on AVX2 exactly when the CPU has it
//! ([`active_isa`], std's cached `is_x86_feature_detected!`); the portable
//! blocked-scalar arm is the only one on other targets and CPUs, and the
//! reference the AVX2 arm is checked against. Both arms emit identical
//! survivors in identical order and return identical scan counts;
//! `tests/kernel_differential.rs` in this crate proves it exhaustively,
//! so replies and counters do not depend on the arm.
//!
//! The kernels are *counter-transparent*: each returns the number of
//! entries scanned, which is exactly the `bbox_comps` charge the caller
//! owes (one bounding-box computation per entry examined, matching what
//! the per-entry loops charged before). Filtering moved from the shared
//! engines into these kernels emits precisely the entries the engines
//! would have kept, so `QueryStats` are byte-identical either way.
//!
//! Two byte-array micro-kernels ride along for the non-rectangle
//! structures: [`scan_ids`] (uniform-grid bucket chains: packed `u32`
//! ids) and [`scan_keys_le`] (PMR quadtree B-tree leaves: sorted `u64`
//! keys) — so no structure crate keeps a private entry-decoding loop.

use crate::rectnode::{Entry, RectNode, HDR};
use lsdb_geom::{Point, Rect};
use std::ops::ControlFlow;

/// Kernel batch: 8 × i32 lanes per AVX2 step (the scalar arm blocks by 8
/// for auto-vectorization). Differential tests straddle this width to
/// cover ragged tails.
pub const LANES: usize = 8;

/// A zero-copy view of one [`RectNode`] page's entry lanes.
///
/// Replaces `RectNode::entries(buf) -> Vec<Entry>` on the query path:
/// the view borrows the pinned page bytes and decodes on the fly, so a
/// node scan touches the allocator not at all. (`entries()` remains for
/// the build/split path, which genuinely wants an owned, reorderable
/// vector.)
#[derive(Clone, Copy)]
pub struct EntryScan<'a> {
    buf: &'a [u8],
    count: usize,
    /// Lane stride in bytes (`4 · capacity`).
    stride: usize,
}

impl<'a> EntryScan<'a> {
    /// View over the occupied entries of a node page.
    pub fn of_node(buf: &'a [u8]) -> EntryScan<'a> {
        let count = RectNode::count(buf);
        let stride = RectNode::lane_stride(buf.len());
        debug_assert!(4 * count <= stride, "count exceeds page capacity");
        EntryScan { buf, count, stride }
    }

    /// Number of entries in view.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Read lane `lane` (0 = xlo, 1 = ylo, 2 = xhi, 3 = yhi, 4 = child)
    /// at entry `i`.
    #[inline(always)]
    fn lane(&self, lane: usize, i: usize) -> i32 {
        let at = HDR + lane * self.stride + 4 * i;
        i32::from_le_bytes(self.buf[at..at + 4].try_into().unwrap())
    }

    /// Raw pointer to lane `lane` at entry `i`, for vector loads. A
    /// width-`W` load from here is in bounds whenever `i + W <=
    /// capacity`; the kernels only issue full-width loads with `i + W <=
    /// count <= capacity`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lane_ptr(&self, lane: usize, i: usize) -> *const u8 {
        debug_assert!(HDR + lane * self.stride + 4 * i < self.buf.len());
        unsafe { self.buf.as_ptr().add(HDR + lane * self.stride + 4 * i) }
    }

    /// Decode entry `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Entry {
        debug_assert!(i < self.count);
        Entry {
            rect: Rect::new(
                self.lane(0, i),
                self.lane(1, i),
                self.lane(2, i),
                self.lane(3, i),
            ),
            child: self.lane(4, i) as u32,
        }
    }

    /// Decode entries one by one, in storage order.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + 'a {
        let s = *self;
        (0..s.count).map(move |i| s.get(i))
    }
}

// ----------------------------------------------------------------------
// ISA selection
// ----------------------------------------------------------------------

/// Instruction set an entry-scan kernel runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable blocked-scalar fallback (also what LLVM auto-vectorizes).
    Scalar,
    /// 8-wide `std::arch` x86-64 AVX2 intrinsics.
    Avx2,
}

impl Isa {
    pub const ALL: [Isa; 2] = [Isa::Scalar, Isa::Avx2];

    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Can this ISA run on the current CPU?
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => false,
        }
    }
}

/// The ISA the dispatching kernels use: AVX2 exactly when the CPU has it
/// (std caches the feature probe, so this is a load and a test).
pub fn active_isa() -> Isa {
    if Isa::Avx2.available() {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

// ----------------------------------------------------------------------
// Dispatching kernels
// ----------------------------------------------------------------------

/// Emit every entry whose rectangle meets `w` (closed bounds, identical
/// to [`Rect::intersects`]), in storage order. Returns the number of
/// entries scanned — the caller's `bbox_comps` charge.
pub fn scan_intersecting(scan: &EntryScan, w: &Rect, f: impl FnMut(Entry)) -> usize {
    scan_intersecting_with(active_isa(), scan, w, f)
}

/// [`scan_intersecting`] on an explicit ISA (differential tests, bench).
/// The caller must only pass an [`Isa::available`] ISA.
pub fn scan_intersecting_with(
    isa: Isa,
    scan: &EntryScan,
    w: &Rect,
    mut f: impl FnMut(Entry),
) -> usize {
    match isa {
        Isa::Scalar => intersect_scalar(scan, w, &mut f),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { intersect_avx2(scan, w, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => intersect_scalar(scan, w, &mut f),
    }
    scan.len()
}

/// Emit every entry whose rectangle contains `p` (closed bounds,
/// identical to [`Rect::contains_point`]), in storage order. Returns the
/// number of entries scanned.
pub fn scan_containing_point(scan: &EntryScan, p: Point, f: impl FnMut(Entry)) -> usize {
    scan_containing_point_with(active_isa(), scan, p, f)
}

/// [`scan_containing_point`] on an explicit ISA.
pub fn scan_containing_point_with(
    isa: Isa,
    scan: &EntryScan,
    p: Point,
    mut f: impl FnMut(Entry),
) -> usize {
    match isa {
        Isa::Scalar => contain_scalar(scan, p, &mut f),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { contain_avx2(scan, p, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => contain_scalar(scan, p, &mut f),
    }
    scan.len()
}

/// Emit every entry together with the exact squared distance from `p` to
/// its rectangle (identical to [`Rect::dist2_point`]; 0 inside) — the
/// SIMD distance lower bound feeding best-first nearest search. Returns
/// the number of entries scanned.
///
/// Domain: as with [`Rect::dist2_point`] itself, every per-axis
/// difference between `p` and a rectangle edge must fit `i32` (far beyond
/// the 2^14 world coordinates; the differential tests exercise ±2^30).
pub fn scan_min_dist2(scan: &EntryScan, p: Point, f: impl FnMut(Entry, i64)) -> usize {
    scan_min_dist2_with(active_isa(), scan, p, f)
}

/// [`scan_min_dist2`] on an explicit ISA.
pub fn scan_min_dist2_with(
    isa: Isa,
    scan: &EntryScan,
    p: Point,
    mut f: impl FnMut(Entry, i64),
) -> usize {
    match isa {
        Isa::Scalar => dist2_scalar(scan, p, &mut f),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { dist2_avx2(scan, p, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dist2_scalar(scan, p, &mut f),
    }
    scan.len()
}

// ----------------------------------------------------------------------
// Scalar arms (portable fallback; LLVM auto-vectorizes the blocked form)
// ----------------------------------------------------------------------

fn intersect_scalar(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(Entry)) {
    let n = scan.count;
    let mut i = 0;
    let mut keep = [false; LANES];
    while i + LANES <= n {
        for (j, k) in keep.iter_mut().enumerate() {
            // Non-short-circuiting `&`: all four comparisons evaluate
            // unconditionally, which is what lets LLVM fuse the lanes.
            *k = (w.min.x <= scan.lane(2, i + j))
                & (scan.lane(0, i + j) <= w.max.x)
                & (w.min.y <= scan.lane(3, i + j))
                & (scan.lane(1, i + j) <= w.max.y);
        }
        for (j, k) in keep.iter().enumerate() {
            if *k {
                f(scan.get(i + j));
            }
        }
        i += LANES;
    }
    for k in i..n {
        let e = scan.get(k);
        if w.intersects(&e.rect) {
            f(e);
        }
    }
}

fn contain_scalar(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry)) {
    let n = scan.count;
    let mut i = 0;
    let mut keep = [false; LANES];
    while i + LANES <= n {
        for (j, k) in keep.iter_mut().enumerate() {
            *k = (scan.lane(0, i + j) <= p.x)
                & (p.x <= scan.lane(2, i + j))
                & (scan.lane(1, i + j) <= p.y)
                & (p.y <= scan.lane(3, i + j));
        }
        for (j, k) in keep.iter().enumerate() {
            if *k {
                f(scan.get(i + j));
            }
        }
        i += LANES;
    }
    for k in i..n {
        let e = scan.get(k);
        if e.rect.contains_point(p) {
            f(e);
        }
    }
}

fn dist2_scalar(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry, i64)) {
    let (px, py) = (p.x as i64, p.y as i64);
    let n = scan.count;
    let mut i = 0;
    let mut d2 = [0i64; LANES];
    while i + LANES <= n {
        for (j, d) in d2.iter_mut().enumerate() {
            // Branch-free clamp: max(min - p, 0, p - max) per axis. For a
            // valid rectangle (min <= max) at most one of the outer terms
            // is positive, so this equals the if/else chain in
            // `Rect::dist2_point` exactly.
            let dx = (scan.lane(0, i + j) as i64 - px)
                .max(0)
                .max(px - scan.lane(2, i + j) as i64);
            let dy = (scan.lane(1, i + j) as i64 - py)
                .max(0)
                .max(py - scan.lane(3, i + j) as i64);
            *d = dx * dx + dy * dy;
        }
        for (j, d) in d2.iter().enumerate() {
            f(scan.get(i + j), *d);
        }
        i += LANES;
    }
    for k in i..n {
        let e = scan.get(k);
        f(e, e.rect.dist2_point(p));
    }
}

// ----------------------------------------------------------------------
// x86-64 AVX2 arm
// ----------------------------------------------------------------------
//
// Shape shared by all three: broadcast the query operand, then per step
// load one vector from each coordinate lane, combine the four per-lane
// compares into a *miss* vector (a rectangle fails a closed-bounds test
// iff some strict `>` holds), movemask it, invert, and walk the set bits
// of the keep mask in ascending order — so survivors are emitted exactly
// in storage order, as the scalar arm does. Tails shorter than the
// vector width fall back to the per-entry scalar test, which keeps every
// load full-width and in bounds (`i + W <= count <= capacity`).

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn load8(scan: &EntryScan, lane: usize, i: usize) -> __m256i {
        unsafe { _mm256_loadu_si256(scan.lane_ptr(lane, i) as *const __m256i) }
    }

    /// Walk the set bits of `keep` in ascending order.
    #[inline(always)]
    fn each_bit(mut keep: u32, mut f: impl FnMut(usize)) {
        while keep != 0 {
            f(keep.trailing_zeros() as usize);
            keep &= keep - 1;
        }
    }

    /// Kick off the five lane streams before the first block. The SoA
    /// layout spreads one node's entries over five cache-line runs where
    /// the v1 interleaved layout was a single run; on a cold node the
    /// first touch of each lane would otherwise miss serially as the
    /// kernel reaches it (best-first nearest traversals visit mostly
    /// cold nodes, so they feel this the most). Overlapping the misses
    /// costs nothing when the page is already hot.
    #[inline(always)]
    unsafe fn prefetch_lanes(scan: &EntryScan) {
        if scan.count == 0 {
            return; // zero-capacity buffers have no lane bytes to touch
        }
        for lane in 0..5 {
            unsafe { _mm_prefetch::<_MM_HINT_T0>(scan.lane_ptr(lane, 0) as *const i8) };
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn intersect_avx2(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(Entry)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let (wminx, wmaxx) = (_mm256_set1_epi32(w.min.x), _mm256_set1_epi32(w.max.x));
        let (wminy, wmaxy) = (_mm256_set1_epi32(w.min.y), _mm256_set1_epi32(w.max.y));
        let mut i = 0;
        while i + 8 <= n {
            let xlo = load8(scan, 0, i);
            let ylo = load8(scan, 1, i);
            let xhi = load8(scan, 2, i);
            let yhi = load8(scan, 3, i);
            let miss = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_cmpgt_epi32(wminx, xhi),
                    _mm256_cmpgt_epi32(xlo, wmaxx),
                ),
                _mm256_or_si256(
                    _mm256_cmpgt_epi32(wminy, yhi),
                    _mm256_cmpgt_epi32(ylo, wmaxy),
                ),
            );
            let keep = !(_mm256_movemask_ps(_mm256_castsi256_ps(miss)) as u32) & 0xFF;
            each_bit(keep, |j| f(scan.get(i + j)));
            i += 8;
        }
        for k in i..n {
            let e = scan.get(k);
            if w.intersects(&e.rect) {
                f(e);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn contain_avx2(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let px = _mm256_set1_epi32(p.x);
        let py = _mm256_set1_epi32(p.y);
        let mut i = 0;
        while i + 8 <= n {
            let xlo = load8(scan, 0, i);
            let ylo = load8(scan, 1, i);
            let xhi = load8(scan, 2, i);
            let yhi = load8(scan, 3, i);
            let miss = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpgt_epi32(xlo, px), _mm256_cmpgt_epi32(px, xhi)),
                _mm256_or_si256(_mm256_cmpgt_epi32(ylo, py), _mm256_cmpgt_epi32(py, yhi)),
            );
            let keep = !(_mm256_movemask_ps(_mm256_castsi256_ps(miss)) as u32) & 0xFF;
            each_bit(keep, |j| f(scan.get(i + j)));
            i += 8;
        }
        for k in i..n {
            let e = scan.get(k);
            if e.rect.contains_point(p) {
                f(e);
            }
        }
    }

    // Distance kernels: dx = max(xlo − px, px − xhi, 0) per lane (exact
    // within the documented i32-difference domain), then dx² + dy² via
    // unsigned 32→64-bit lane multiplies — dx/dy are non-negative and
    // < 2^31, so `mul_epu32` of a lane with itself is the exact square.
    // Even-indexed entries come straight out of the register; odd-indexed
    // ones after a 32-bit lane shift.

    #[target_feature(enable = "avx2")]
    pub unsafe fn dist2_avx2(scan: &EntryScan, p: Point, f: &mut impl FnMut(Entry, i64)) {
        let n = scan.count;
        unsafe { prefetch_lanes(scan) };
        let px = _mm256_set1_epi32(p.x);
        let py = _mm256_set1_epi32(p.y);
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        let mut even = [0i64; 4];
        let mut odd = [0i64; 4];
        while i + 8 <= n {
            let xlo = load8(scan, 0, i);
            let ylo = load8(scan, 1, i);
            let xhi = load8(scan, 2, i);
            let yhi = load8(scan, 3, i);
            let dx = _mm256_max_epi32(
                _mm256_max_epi32(_mm256_sub_epi32(xlo, px), _mm256_sub_epi32(px, xhi)),
                zero,
            );
            let dy = _mm256_max_epi32(
                _mm256_max_epi32(_mm256_sub_epi32(ylo, py), _mm256_sub_epi32(py, yhi)),
                zero,
            );
            let d2_even = _mm256_add_epi64(_mm256_mul_epu32(dx, dx), _mm256_mul_epu32(dy, dy));
            let dx_o = _mm256_srli_epi64(dx, 32);
            let dy_o = _mm256_srli_epi64(dy, 32);
            let d2_odd =
                _mm256_add_epi64(_mm256_mul_epu32(dx_o, dx_o), _mm256_mul_epu32(dy_o, dy_o));
            _mm256_storeu_si256(even.as_mut_ptr() as *mut __m256i, d2_even);
            _mm256_storeu_si256(odd.as_mut_ptr() as *mut __m256i, d2_odd);
            for j in 0..8 {
                let d = if j & 1 == 0 { even[j / 2] } else { odd[j / 2] };
                f(scan.get(i + j), d);
            }
            i += 8;
        }
        for k in i..n {
            let e = scan.get(k);
            f(e, e.rect.dist2_point(p));
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{contain_avx2, dist2_avx2, intersect_avx2};

// ----------------------------------------------------------------------
// Byte-array micro-kernels (non-rectangle structures)
// ----------------------------------------------------------------------

/// Decode a packed array of `u32` LE ids (a uniform-grid bucket chain
/// page's payload region) and emit each one.
pub fn scan_ids(bytes: &[u8], mut f: impl FnMut(u32)) {
    for chunk in bytes.chunks_exact(4) {
        f(u32::from_le_bytes(
            chunk.try_into().expect("exact id chunk"),
        ));
    }
}

/// Walk a packed array of ascending `u64` LE keys (a B-tree leaf's key
/// region), emitting each key `<= hi` and stopping at the first key past
/// `hi`. The callback's `Break` short-circuits, as in range scans.
pub fn scan_keys_le(
    bytes: &[u8],
    hi: u64,
    f: &mut impl FnMut(u64) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for chunk in bytes.chunks_exact(8) {
        let k = u64::from_le_bytes(chunk.try_into().expect("exact key chunk"));
        if k > hi {
            break;
        }
        f(k)?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rectnode::ENTRY;
    use lsdb_rng::StdRng;

    /// Build a node page holding `n` random entries, including degenerate
    /// (zero-area) rectangles — segments are often axis-aligned, so the
    /// kernels must handle `min == max` on either axis.
    fn random_page(rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; HDR + n * ENTRY];
        RectNode::init(&mut buf, true);
        for i in 0..n {
            let x0 = rng.gen_range(-1000..1000);
            let y0 = rng.gen_range(-1000..1000);
            let (w, h) = if rng.gen_bool(0.25) {
                (0, 0) // zero-area rect
            } else {
                (rng.gen_range(0..100), rng.gen_range(0..100))
            };
            RectNode::push(
                &mut buf,
                Entry {
                    rect: Rect::new(x0, y0, x0 + w, y0 + h),
                    child: i as u32,
                },
            );
        }
        buf
    }

    /// The ISAs this host can run — every one must agree with the naive
    /// reference (the full cross-ISA matrix lives in
    /// `tests/kernel_differential.rs`).
    fn isas() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|i| i.available()).collect()
    }

    #[test]
    fn intersecting_matches_naive_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        // Sizes straddle the widest block: full blocks, ragged tails, and
        // partially-filled nodes below one block.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 50, 101] {
            let buf = random_page(&mut rng, n);
            let w = Rect::new(-300, -300, 250, 400);
            let naive: Vec<Entry> = RectNode::entries(&buf)
                .into_iter()
                .filter(|e| w.intersects(&e.rect))
                .collect();
            for isa in isas() {
                let mut got = Vec::new();
                let scanned =
                    scan_intersecting_with(isa, &EntryScan::of_node(&buf), &w, |e| got.push(e));
                assert_eq!(scanned, n, "kernel scans every entry");
                assert_eq!(got, naive, "n={n} isa={isa:?}");
            }
        }
    }

    #[test]
    fn containing_point_matches_naive_loop() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [0, 1, 3, 4, 6, 8, 11, 50] {
            let buf = random_page(&mut rng, n);
            // Probe corners and interiors of stored rects, not just random
            // points: closed-boundary semantics must match exactly.
            let mut probes = vec![Point::new(0, 0), Point::new(-37, 44)];
            for e in RectNode::entries(&buf) {
                probes.push(e.rect.min);
                probes.push(e.rect.max);
            }
            for p in probes {
                let naive: Vec<Entry> = RectNode::entries(&buf)
                    .into_iter()
                    .filter(|e| e.rect.contains_point(p))
                    .collect();
                for isa in isas() {
                    let mut got = Vec::new();
                    let scanned =
                        scan_containing_point_with(isa, &EntryScan::of_node(&buf), p, |e| {
                            got.push(e)
                        });
                    assert_eq!(scanned, n);
                    assert_eq!(got, naive, "n={n} p={p:?} isa={isa:?}");
                }
            }
        }
    }

    #[test]
    fn min_dist2_matches_rect_dist2_point() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [0, 1, 4, 5, 8, 9, 50] {
            let buf = random_page(&mut rng, n);
            for _ in 0..8 {
                let p = Point::new(rng.gen_range(-1500..1500), rng.gen_range(-1500..1500));
                let naive: Vec<(Entry, i64)> = RectNode::entries(&buf)
                    .into_iter()
                    .map(|e| (e, e.rect.dist2_point(p)))
                    .collect();
                for isa in isas() {
                    let mut got = Vec::new();
                    let scanned = scan_min_dist2_with(isa, &EntryScan::of_node(&buf), p, |e, d| {
                        got.push((e, d))
                    });
                    assert_eq!(scanned, n);
                    assert_eq!(got, naive, "n={n} p={p:?} isa={isa:?}");
                }
            }
        }
    }

    #[test]
    fn min_dist2_extreme_coordinates_match_reference() {
        // The widest domain `Rect::dist2_point` itself supports (per-axis
        // differences must fit i32, far beyond world coordinates): every
        // ISA arm must agree there too.
        const M: i32 = (1 << 30) - 1;
        let mut buf = vec![0u8; HDR + 9 * ENTRY];
        RectNode::init(&mut buf, true);
        let r = Rect::new(-M, -M, -M, -M);
        let r2 = Rect::new(M - 1, M - 1, M, M);
        RectNode::push(&mut buf, Entry { rect: r, child: 0 });
        RectNode::push(&mut buf, Entry { rect: r2, child: 1 });
        // Pad to a full 8-block plus a tail so the vector path runs.
        for c in 2..9 {
            RectNode::push(
                &mut buf,
                Entry {
                    rect: Rect::new(-M, -M, M, M),
                    child: c,
                },
            );
        }
        let p = Point::new(M, -M);
        for isa in isas() {
            let mut got = Vec::new();
            scan_min_dist2_with(isa, &EntryScan::of_node(&buf), p, |e, d| {
                got.push((e.child, d))
            });
            assert_eq!(got[0], (0, r.dist2_point(p)), "isa={isa:?}");
            assert_eq!(got[1], (1, r2.dist2_point(p)), "isa={isa:?}");
            assert_eq!(got[2], (2, 0), "inside the padded rect, isa={isa:?}");
        }
    }

    #[test]
    fn entry_scan_iter_agrees_with_entries_vec() {
        let mut rng = StdRng::seed_from_u64(14);
        let buf = random_page(&mut rng, 23);
        let scan = EntryScan::of_node(&buf);
        assert_eq!(scan.len(), 23);
        assert!(!scan.is_empty());
        assert_eq!(scan.iter().collect::<Vec<_>>(), RectNode::entries(&buf));
        let empty = random_page(&mut rng, 0);
        assert!(EntryScan::of_node(&empty).is_empty());
    }

    #[test]
    fn active_isa_is_cached_and_available() {
        let isa = active_isa();
        assert!(isa.available());
        assert_eq!(
            isa == Isa::Avx2,
            Isa::Avx2.available(),
            "AVX2 whenever the CPU has it"
        );
        assert_eq!(active_isa(), isa, "selection is sticky");
    }

    #[test]
    fn scan_ids_decodes_packed_u32() {
        let ids = [7u32, 0, u32::MAX, 41];
        let mut bytes = Vec::new();
        for id in ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        let mut got = Vec::new();
        scan_ids(&bytes, |id| got.push(id));
        assert_eq!(got, ids);
    }

    #[test]
    fn scan_keys_le_stops_at_hi_and_short_circuits() {
        let keys = [3u64, 9, 10, 15, 40];
        let mut bytes = Vec::new();
        for k in keys {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        let mut got = Vec::new();
        let r = scan_keys_le(&bytes, 15, &mut |k| {
            got.push(k);
            ControlFlow::Continue(())
        });
        assert_eq!(got, [3, 9, 10, 15]);
        assert!(r.is_continue());
        got.clear();
        let r = scan_keys_le(&bytes, 100, &mut |k| {
            got.push(k);
            if k >= 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(got, [3, 9, 10], "callback break stops the walk");
        assert!(r.is_break());
    }
}
