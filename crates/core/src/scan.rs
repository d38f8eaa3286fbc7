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
//!   gather. A ragged tail runs as one more block, masked to the entry
//!   count, and
//! * hand the callback each survivor's **child id** (the only field any
//!   traversal reads), so no survivor's rectangle is decoded twice.
//!
//! Each kernel runs on AVX2 exactly when the CPU has it
//! ([`active_isa`], std's cached `is_x86_feature_detected!`); the portable
//! blocked-scalar arm is the only one on other targets and CPUs, and the
//! reference the AVX2 arm is checked against. The explicit-ISA variants
//! (`*_with`) are safe with any [`Isa`]: asked for AVX2 on a CPU without
//! it, they run the scalar arm. Both arms emit identical
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

use crate::rectnode::{RectNode, HDR};
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
    ///
    /// Panics if `buf` is shorter than a node header or its entry count
    /// exceeds the page's capacity: the AVX2 arm's vector loads rely on
    /// both, and any byte slice can be passed here.
    pub fn of_node(buf: &'a [u8]) -> EntryScan<'a> {
        assert!(buf.len() >= HDR, "node page shorter than its header");
        let count = RectNode::count(buf);
        let stride = RectNode::lane_stride(buf.len());
        assert!(
            4 * count <= stride,
            "node count {count} exceeds the page's capacity"
        );
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

    /// Whether a [`LANES`]-wide load of each rectangle lane starting at
    /// entry `i` ends inside the page buffer. Lane 3 (`yhi`) ends last, and
    /// the child lane follows it, so this holds for every block start
    /// below `count` on any page of capacity 7 or more: the load runs at
    /// most 7 entries (28 bytes) past lane 3's end, into the child lane.
    #[inline(always)]
    fn block_in_page(&self, i: usize) -> bool {
        HDR + 3 * self.stride + 4 * (i + LANES) <= self.buf.len()
    }

    /// Raw pointer to lane `lane` at entry `i`, for vector loads. The
    /// kernels only load a block from here after checking that it ends
    /// inside the buffer (see `block_in_page`).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lane_ptr(&self, lane: usize, i: usize) -> *const u8 {
        let at = HDR + lane * self.stride + 4 * i;
        debug_assert!(at < self.buf.len());
        // SAFETY: every caller passes a lane entry inside the buffer (a
        // block start with `block_in_page`, or entry 0 of a non-empty
        // page), so the offset stays within the slice's allocation.
        unsafe { self.buf.as_ptr().add(at) }
    }

    /// Bounding rectangle of entry `i`.
    #[inline(always)]
    fn rect(&self, i: usize) -> Rect {
        debug_assert!(i < self.count);
        Rect::new(
            self.lane(0, i),
            self.lane(1, i),
            self.lane(2, i),
            self.lane(3, i),
        )
    }

    /// Child pointer of entry `i`: a segment id on a leaf, a page id on
    /// an internal node.
    #[inline(always)]
    pub fn child(&self, i: usize) -> u32 {
        debug_assert!(i < self.count);
        self.lane(4, i) as u32
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

    /// Can this ISA run on the current CPU? (std caches the feature
    /// probe, so this is a load and a test.)
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

/// The ISA the dispatching kernels use: AVX2 exactly when the CPU has it.
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
//
// Each `*_with` variant is safe to call with any ISA: the AVX2 arm checks
// `Isa::available` (std's cached probe) before entering the
// `#[target_feature]` code and runs the scalar arm on a CPU without AVX2.

/// Emit the child id of every entry whose rectangle meets `w` (closed
/// bounds, identical to [`Rect::intersects`]), in storage order. Returns
/// the number of entries scanned — the caller's `bbox_comps` charge.
pub fn scan_intersecting(scan: &EntryScan, w: &Rect, f: impl FnMut(u32)) -> usize {
    scan_intersecting_with(active_isa(), scan, w, f)
}

/// [`scan_intersecting`] on an explicit ISA (differential tests, bench).
/// An ISA the CPU lacks runs the scalar arm.
pub fn scan_intersecting_with(
    isa: Isa,
    scan: &EntryScan,
    w: &Rect,
    mut f: impl FnMut(u32),
) -> usize {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.available() => {
            // SAFETY: the guard just confirmed that the CPU executes AVX2.
            unsafe { intersect_avx2(scan, w, &mut f) }
        }
        _ => intersect_scalar(scan, w, &mut f),
    }
    scan.len()
}

/// Emit the child id of every entry whose rectangle contains `p` (closed
/// bounds, identical to [`Rect::contains_point`]), in storage order.
/// Returns the number of entries scanned.
pub fn scan_containing_point(scan: &EntryScan, p: Point, f: impl FnMut(u32)) -> usize {
    scan_containing_point_with(active_isa(), scan, p, f)
}

/// [`scan_containing_point`] on an explicit ISA. An ISA the CPU lacks
/// runs the scalar arm.
pub fn scan_containing_point_with(
    isa: Isa,
    scan: &EntryScan,
    p: Point,
    mut f: impl FnMut(u32),
) -> usize {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.available() => {
            // SAFETY: the guard just confirmed that the CPU executes AVX2.
            unsafe { contain_avx2(scan, p, &mut f) }
        }
        _ => contain_scalar(scan, p, &mut f),
    }
    scan.len()
}

/// Emit every entry's child id together with the exact squared distance
/// from `p` to its rectangle (identical to [`Rect::dist2_point`]; 0
/// inside) — the SIMD distance lower bound feeding best-first nearest
/// search. Returns the number of entries scanned.
///
/// Domain: as with [`Rect::dist2_point`] itself, every per-axis
/// difference between `p` and a rectangle edge must fit `i32` (far beyond
/// the 2^14 world coordinates; the differential tests exercise ±2^30).
pub fn scan_min_dist2(scan: &EntryScan, p: Point, f: impl FnMut(u32, i64)) -> usize {
    scan_min_dist2_with(active_isa(), scan, p, f)
}

/// [`scan_min_dist2`] on an explicit ISA. An ISA the CPU lacks runs the
/// scalar arm.
pub fn scan_min_dist2_with(
    isa: Isa,
    scan: &EntryScan,
    p: Point,
    mut f: impl FnMut(u32, i64),
) -> usize {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.available() => {
            // SAFETY: the guard just confirmed that the CPU executes AVX2.
            unsafe { dist2_avx2(scan, p, &mut f) }
        }
        _ => dist2_scalar(scan, p, &mut f),
    }
    scan.len()
}

// ----------------------------------------------------------------------
// Scalar arms (portable fallback; LLVM auto-vectorizes the blocked form)
// ----------------------------------------------------------------------

fn intersect_scalar(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(u32)) {
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
                f(scan.child(i + j));
            }
        }
        i += LANES;
    }
    for k in i..n {
        if w.intersects(&scan.rect(k)) {
            f(scan.child(k));
        }
    }
}

fn contain_scalar(scan: &EntryScan, p: Point, f: &mut impl FnMut(u32)) {
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
                f(scan.child(i + j));
            }
        }
        i += LANES;
    }
    for k in i..n {
        if scan.rect(k).contains_point(p) {
            f(scan.child(k));
        }
    }
}

fn dist2_scalar(scan: &EntryScan, p: Point, f: &mut impl FnMut(u32, i64)) {
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
            f(scan.child(i + j), *d);
        }
        i += LANES;
    }
    for k in i..n {
        f(scan.child(k), scan.rect(k).dist2_point(p));
    }
}

// ----------------------------------------------------------------------
// x86-64 AVX2 arm
// ----------------------------------------------------------------------
//
// Shape shared by all three: broadcast the query operand, then per block
// load one vector from each rectangle lane, combine the four per-lane
// compares into a *miss* vector (a rectangle fails a closed-bounds test
// iff some strict `>` holds), movemask it, invert, and walk the set bits
// of the keep mask in ascending order — so survivors are emitted exactly
// in storage order, as the scalar arm does.
//
// The ragged tail (`count % 8` entries) runs as one more block, its keep
// mask cut to the live entries, whenever that block's loads end inside the
// page buffer (`EntryScan::block_in_page`; always so at capacity >= 7).
// The lanes past `count` it loads hold stale entries (a swap-remove leaves
// the old last entry behind) or zeroes: they are compared, never emitted.
// Only on smaller pages does the tail fall back to the per-entry test.

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Load 8 lanes of lane `lane` from entry `i`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `scan.block_in_page(i)` must hold
    /// (`lane <= 3`), so all 32 bytes lie inside the page buffer.
    #[inline(always)]
    unsafe fn load8(scan: &EntryScan, lane: usize, i: usize) -> __m256i {
        debug_assert!(lane <= 3 && scan.block_in_page(i));
        // SAFETY: the caller's contract puts the 32 bytes inside the
        // buffer; `loadu` has no alignment requirement.
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

    /// Drive a filtering kernel over the page: `keep(i)` gives the keep
    /// bits of the 8 entries from `i`, and is called only at block starts
    /// where `scan.block_in_page(i)` holds — every full block, then the
    /// ragged tail as one more block cut to the count when its loads stay
    /// in the page. Otherwise the tail runs entry by entry through `hit`.
    /// Emits survivors' child ids in storage order.
    #[inline(always)]
    fn drive(
        scan: &EntryScan,
        keep: impl Fn(usize) -> u32,
        hit: impl Fn(usize) -> bool,
        f: &mut impl FnMut(u32),
    ) {
        let n = scan.count;
        let mut i = 0;
        while i + LANES <= n {
            each_bit(keep(i), |j| f(scan.child(i + j)));
            i += LANES;
        }
        if i == n {
            return;
        }
        if scan.block_in_page(i) {
            let live = (1u32 << (n - i)) - 1;
            each_bit(keep(i) & live, |j| f(scan.child(i + j)));
        } else {
            for k in i..n {
                if hit(k) {
                    f(scan.child(k));
                }
            }
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
    fn prefetch_lanes(scan: &EntryScan) {
        if scan.count == 0 {
            return; // zero-capacity buffers have no lane bytes to touch
        }
        for lane in 0..5 {
            // SAFETY: `count >= 1`, so entry 0 of every lane lies inside
            // the buffer; a prefetch never faults in any case.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(scan.lane_ptr(lane, 0) as *const i8) };
        }
    }

    /// The four rectangle lanes of the block at `i`.
    ///
    /// # Safety
    ///
    /// As [`load8`]: AVX2, and `scan.block_in_page(i)`.
    #[inline(always)]
    unsafe fn load_rects(scan: &EntryScan, i: usize) -> [__m256i; 4] {
        // SAFETY: the caller's contract is `load8`'s.
        unsafe {
            [
                load8(scan, 0, i),
                load8(scan, 1, i),
                load8(scan, 2, i),
                load8(scan, 3, i),
            ]
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn intersect_avx2(scan: &EntryScan, w: &Rect, f: &mut impl FnMut(u32)) {
        prefetch_lanes(scan);
        let (wminx, wmaxx) = (_mm256_set1_epi32(w.min.x), _mm256_set1_epi32(w.max.x));
        let (wminy, wmaxy) = (_mm256_set1_epi32(w.min.y), _mm256_set1_epi32(w.max.y));
        let keep = |i| {
            // SAFETY: AVX2 is this function's contract, and `drive` calls
            // `keep` only where `block_in_page(i)` holds.
            let [xlo, ylo, xhi, yhi] = unsafe { load_rects(scan, i) };
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
            !(_mm256_movemask_ps(_mm256_castsi256_ps(miss)) as u32) & 0xFF
        };
        drive(scan, keep, |k| w.intersects(&scan.rect(k)), f);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn contain_avx2(scan: &EntryScan, p: Point, f: &mut impl FnMut(u32)) {
        prefetch_lanes(scan);
        let px = _mm256_set1_epi32(p.x);
        let py = _mm256_set1_epi32(p.y);
        let keep = |i| {
            // SAFETY: as in `intersect_avx2`.
            let [xlo, ylo, xhi, yhi] = unsafe { load_rects(scan, i) };
            let miss = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpgt_epi32(xlo, px), _mm256_cmpgt_epi32(px, xhi)),
                _mm256_or_si256(_mm256_cmpgt_epi32(ylo, py), _mm256_cmpgt_epi32(py, yhi)),
            );
            !(_mm256_movemask_ps(_mm256_castsi256_ps(miss)) as u32) & 0xFF
        };
        drive(scan, keep, |k| scan.rect(k).contains_point(p), f);
    }

    // Distance kernel: dx = max(xlo − px, px − xhi, 0) per lane (exact
    // within the documented i32-difference domain), then dx² + dy² via
    // unsigned 32→64-bit lane multiplies — dx/dy are non-negative and
    // < 2^31, so `mul_epu32` of a lane with itself is the exact square.
    // Even-indexed entries come straight out of the register; odd-indexed
    // ones after a 32-bit lane shift. Stale lanes past `count` may wrap in
    // the subtractions; their results are computed and dropped.

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dist2_avx2(scan: &EntryScan, p: Point, f: &mut impl FnMut(u32, i64)) {
        prefetch_lanes(scan);
        let px = _mm256_set1_epi32(p.x);
        let py = _mm256_set1_epi32(p.y);
        let zero = _mm256_setzero_si256();
        let mut even = [0i64; 4];
        let mut odd = [0i64; 4];
        // Emit the first `live` entries of the block at `i`; called only
        // where `block_in_page(i)` holds.
        let mut block = |i: usize, live: usize| {
            // SAFETY: AVX2 is this function's contract, and both calls
            // below check `block_in_page(i)` (a full block, or the tail).
            let [xlo, ylo, xhi, yhi] = unsafe { load_rects(scan, i) };
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
            // SAFETY: each array is exactly 32 bytes; `storeu` has no
            // alignment requirement.
            unsafe {
                _mm256_storeu_si256(even.as_mut_ptr() as *mut __m256i, d2_even);
                _mm256_storeu_si256(odd.as_mut_ptr() as *mut __m256i, d2_odd);
            }
            for j in 0..live {
                let d = if j & 1 == 0 { even[j / 2] } else { odd[j / 2] };
                f(scan.child(i + j), d);
            }
        };
        let n = scan.count;
        let mut i = 0;
        while i + LANES <= n {
            block(i, LANES);
            i += LANES;
        }
        if i < n && scan.block_in_page(i) {
            block(i, n - i);
        } else {
            for k in i..n {
                f(scan.child(k), scan.rect(k).dist2_point(p));
            }
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
    use crate::rectnode::{Entry, ENTRY};
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

    #[test]
    fn intersecting_matches_naive_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        // Sizes straddle the widest block: full blocks, ragged tails, and
        // partially-filled nodes below one block.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 50, 101] {
            let buf = random_page(&mut rng, n);
            let w = Rect::new(-300, -300, 250, 400);
            let naive: Vec<u32> = RectNode::entries(&buf)
                .into_iter()
                .filter(|e| w.intersects(&e.rect))
                .map(|e| e.child)
                .collect();
            for isa in Isa::ALL {
                let mut got = Vec::new();
                let scanned =
                    scan_intersecting_with(isa, &EntryScan::of_node(&buf), &w, |c| got.push(c));
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
                let naive: Vec<u32> = RectNode::entries(&buf)
                    .into_iter()
                    .filter(|e| e.rect.contains_point(p))
                    .map(|e| e.child)
                    .collect();
                for isa in Isa::ALL {
                    let mut got = Vec::new();
                    let scanned =
                        scan_containing_point_with(isa, &EntryScan::of_node(&buf), p, |c| {
                            got.push(c)
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
                let naive: Vec<(u32, i64)> = RectNode::entries(&buf)
                    .into_iter()
                    .map(|e| (e.child, e.rect.dist2_point(p)))
                    .collect();
                for isa in Isa::ALL {
                    let mut got = Vec::new();
                    let scanned = scan_min_dist2_with(isa, &EntryScan::of_node(&buf), p, |c, d| {
                        got.push((c, d))
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
        for isa in Isa::ALL {
            let mut got = Vec::new();
            scan_min_dist2_with(isa, &EntryScan::of_node(&buf), p, |c, d| got.push((c, d)));
            assert_eq!(got[0], (0, r.dist2_point(p)), "isa={isa:?}");
            assert_eq!(got[1], (1, r2.dist2_point(p)), "isa={isa:?}");
            assert_eq!(got[2], (2, 0), "inside the padded rect, isa={isa:?}");
        }
    }

    #[test]
    fn entry_scan_agrees_with_entries_vec() {
        let mut rng = StdRng::seed_from_u64(14);
        let buf = random_page(&mut rng, 23);
        let scan = EntryScan::of_node(&buf);
        assert_eq!(scan.len(), 23);
        assert!(!scan.is_empty());
        let entries: Vec<Entry> = (0..scan.len())
            .map(|i| Entry {
                rect: scan.rect(i),
                child: scan.child(i),
            })
            .collect();
        assert_eq!(entries, RectNode::entries(&buf));
        let empty = random_page(&mut rng, 0);
        assert!(EntryScan::of_node(&empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the page's capacity")]
    fn entry_scan_refuses_a_count_past_capacity() {
        // A 1 KB page holds 50 entries; a header claiming 51 would send
        // the vector loads past the buffer.
        let mut buf = vec![0u8; 1024];
        RectNode::init(&mut buf, true);
        buf[2..4].copy_from_slice(&51u16.to_le_bytes());
        EntryScan::of_node(&buf);
    }

    #[test]
    fn masked_tail_fits_every_page_of_capacity_seven_or_more() {
        // Page buffers sized exactly to their capacity (no slack after
        // the child lane): the last block's loads fit for every count at
        // capacity >= 7, and never past count 0 at capacities 1 to 3.
        for cap in 1..=64usize {
            let buf = vec![0u8; HDR + cap * ENTRY];
            let scan = EntryScan::of_node(&buf);
            assert_eq!(RectNode::capacity(buf.len()), cap);
            for n in 1..=cap {
                let last = (n - 1) & !(LANES - 1);
                if cap >= 7 {
                    assert!(scan.block_in_page(last), "cap {cap} count {n}");
                }
                if cap <= 3 {
                    assert!(!scan.block_in_page(last), "cap {cap} count {n}");
                }
            }
        }
        // The paper's 1 KB page: its last block (entries 48..56) ends
        // inside the child lane.
        let scan = EntryScan::of_node(&[0u8; 1024]);
        assert!(scan.block_in_page(48));
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
