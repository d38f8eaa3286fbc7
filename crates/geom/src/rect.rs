use crate::{Point, Segment};
use std::fmt;

/// An axis-aligned rectangle with **closed** bounds `[min.x, max.x] ×
/// [min.y, max.y]`.
///
/// Degenerate rectangles (zero width and/or height) are legal — they arise
/// as minimum bounding rectangles of axis-parallel segments, which dominate
/// urban road maps.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}

impl Rect {
    /// Build from corner coordinates. Panics in debug builds if inverted.
    pub fn new(x0: i32, y0: i32, x1: i32, y1: i32) -> Self {
        debug_assert!(x0 <= x1 && y0 <= y1, "inverted rect {x0},{y0},{x1},{y1}");
        Rect {
            min: Point::new(x0, y0),
            max: Point::new(x1, y1),
        }
    }

    /// The minimum bounding rectangle of two points (any order).
    pub fn bounding(a: Point, b: Point) -> Self {
        Rect {
            min: a.min_with(b),
            max: a.max_with(b),
        }
    }

    /// A degenerate rectangle containing exactly one point.
    pub fn point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    pub fn width(&self) -> i64 {
        (self.max.x - self.min.x) as i64
    }

    pub fn height(&self) -> i64 {
        (self.max.y - self.min.y) as i64
    }

    /// Area of the closed rectangle, counted as `width * height` in
    /// continuous space (a degenerate rect has area 0).
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Half-perimeter (margin), the quantity minimized by the R*-tree split
    /// axis selection.
    pub fn margin(&self) -> i64 {
        self.width() + self.height()
    }

    pub fn contains_point(&self, p: Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    pub fn contains_rect(&self, r: &Rect) -> bool {
        self.min.x <= r.min.x
            && self.min.y <= r.min.y
            && r.max.x <= self.max.x
            && r.max.y <= self.max.y
    }

    /// Closed-boundary intersection test (touching rectangles intersect).
    pub fn intersects(&self, r: &Rect) -> bool {
        self.min.x <= r.max.x
            && r.min.x <= self.max.x
            && self.min.y <= r.max.y
            && r.min.y <= self.max.y
    }

    /// The intersection rectangle, if non-empty.
    pub fn intersection(&self, r: &Rect) -> Option<Rect> {
        if !self.intersects(r) {
            return None;
        }
        Some(Rect {
            min: self.min.max_with(r.min),
            max: self.max.min_with(r.max),
        })
    }

    /// Area of overlap with `r` (0 when disjoint; touching rects overlap
    /// with zero area).
    pub fn overlap_area(&self, r: &Rect) -> i64 {
        match self.intersection(r) {
            Some(i) => i.area(),
            None => 0,
        }
    }

    /// Smallest rectangle containing both `self` and `r`.
    pub fn union(&self, r: &Rect) -> Rect {
        Rect {
            min: self.min.min_with(r.min),
            max: self.max.max_with(r.max),
        }
    }

    /// How much `self.area()` grows if enlarged to also cover `r`.
    pub fn enlargement(&self, r: &Rect) -> i64 {
        self.union(r).area() - self.area()
    }

    /// Exact squared distance from `p` to the closed rectangle (0 inside).
    pub fn dist2_point(&self, p: Point) -> i64 {
        let dx = if p.x < self.min.x {
            (self.min.x - p.x) as i64
        } else if p.x > self.max.x {
            (p.x - self.max.x) as i64
        } else {
            0
        };
        let dy = if p.y < self.min.y {
            (self.min.y - p.y) as i64
        } else if p.y > self.max.y {
            (p.y - self.max.y) as i64
        } else {
            0
        };
        dx * dx + dy * dy
    }

    /// Center of the rectangle, rounded toward `min`: `min + (max - min) / 2`
    /// per axis, evaluated in `i64` so that no extent overflows. The
    /// result lies between the corners, so it always fits in `i32`.
    pub fn center(&self) -> Point {
        let mid = |lo: i32, hi: i32| (lo as i64 + (hi as i64 - lo as i64) / 2) as i32;
        Point::new(mid(self.min.x, self.max.x), mid(self.min.y, self.max.y))
    }

    /// Center of the rectangle in doubled coordinates (exact midpoint
    /// without rounding): returns `(2*cx, 2*cy)`.
    pub fn center2(&self) -> (i64, i64) {
        (
            self.min.x as i64 + self.max.x as i64,
            self.min.y as i64 + self.max.y as i64,
        )
    }

    /// Exact test: does the closed rectangle intersect the closed segment?
    ///
    /// True iff an endpoint lies inside, or the segment crosses one of the
    /// four boundary edges. All tests are exact integer orientation tests.
    pub fn intersects_segment(&self, s: &Segment) -> bool {
        // Quick reject on bounding boxes.
        if !self.intersects(&s.bbox()) {
            return false;
        }
        if self.contains_point(s.a) || self.contains_point(s.b) {
            return true;
        }
        let c0 = Point::new(self.min.x, self.min.y);
        let c1 = Point::new(self.max.x, self.min.y);
        let c2 = Point::new(self.max.x, self.max.y);
        let c3 = Point::new(self.min.x, self.max.y);
        s.intersects(&Segment::new(c0, c1))
            || s.intersects(&Segment::new(c1, c2))
            || s.intersects(&Segment::new(c2, c3))
            || s.intersects(&Segment::new(c3, c0))
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{},{}..{},{}]",
            self.min.x, self.min.y, self.max.x, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: i32, y0: i32, x1: i32, y1: i32) -> Rect {
        Rect::new(x0, y0, x1, y1)
    }

    #[test]
    fn area_margin() {
        let a = r(0, 0, 4, 3);
        assert_eq!(a.area(), 12);
        assert_eq!(a.margin(), 7);
        assert_eq!(Rect::point(Point::new(5, 5)).area(), 0);
    }

    #[test]
    fn containment() {
        let a = r(0, 0, 10, 10);
        assert!(a.contains_rect(&r(0, 0, 10, 10)));
        assert!(a.contains_rect(&r(2, 3, 4, 5)));
        assert!(!a.contains_rect(&r(2, 3, 11, 5)));
        assert!(a.contains_point(Point::new(10, 10)));
        assert!(!a.contains_point(Point::new(10, 11)));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = r(0, 0, 10, 10);
        let b = r(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(r(5, 5, 10, 10)));
        assert_eq!(a.overlap_area(&b), 25);
        // Touching rects intersect with zero overlap area.
        let c = r(10, 0, 20, 10);
        assert!(a.intersects(&c));
        assert_eq!(a.overlap_area(&c), 0);
        // Disjoint.
        let d = r(11, 11, 12, 12);
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn union_and_enlargement() {
        let a = r(0, 0, 2, 2);
        let b = r(4, 4, 6, 6);
        assert_eq!(a.union(&b), r(0, 0, 6, 6));
        assert_eq!(a.enlargement(&b), 36 - 4);
        assert_eq!(a.enlargement(&r(1, 1, 2, 2)), 0);
    }

    #[test]
    fn dist2_point() {
        let a = r(2, 2, 6, 6);
        assert_eq!(a.dist2_point(Point::new(4, 4)), 0, "inside");
        assert_eq!(a.dist2_point(Point::new(2, 6)), 0, "corner");
        assert_eq!(a.dist2_point(Point::new(0, 4)), 4, "left of");
        assert_eq!(a.dist2_point(Point::new(0, 0)), 8, "diagonal");
        assert_eq!(a.dist2_point(Point::new(9, 10)), 9 + 16);
    }

    #[test]
    fn segment_intersection_cases() {
        let a = r(2, 2, 6, 6);
        // Fully inside.
        assert!(a.intersects_segment(&Segment::new(Point::new(3, 3), Point::new(4, 4))));
        // Crossing straight through without endpoints inside.
        assert!(a.intersects_segment(&Segment::new(Point::new(0, 4), Point::new(10, 4))));
        // Diagonal crossing a corner region.
        assert!(a.intersects_segment(&Segment::new(Point::new(0, 4), Point::new(4, 0))));
        // Touching a corner exactly.
        assert!(a.intersects_segment(&Segment::new(Point::new(0, 8), Point::new(2, 6))));
        // Near miss outside a corner.
        assert!(!a.intersects_segment(&Segment::new(Point::new(0, 7), Point::new(1, 8))));
        // Completely outside.
        assert!(!a.intersects_segment(&Segment::new(Point::new(7, 7), Point::new(9, 9))));
        // Collinear with an edge, overlapping it.
        assert!(a.intersects_segment(&Segment::new(Point::new(0, 2), Point::new(10, 2))));
    }

    #[test]
    fn center_rounds_toward_min_and_never_overflows() {
        assert_eq!(Rect::new(0, 0, 9, 5).center(), Point::new(4, 2));
        assert_eq!(Rect::new(-50, 90, 150, 4000).center(), Point::new(50, 2045));
        let full = Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX);
        assert_eq!(full.center(), Point::new(-1, -1));
    }

    #[test]
    fn center2_is_exact_doubled_midpoint() {
        assert_eq!(r(0, 0, 3, 5).center2(), (3, 5));
        assert_eq!(r(2, 2, 4, 4).center2(), (6, 6));
    }
}
