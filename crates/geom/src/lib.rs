//! Exact integer geometry kernel for line-segment databases.
//!
//! All coordinates live on the integer grid `[0, 2^14)²` used by the paper
//! (maps are normalized to a 16K×16K region, giving a PMR quadtree maximum
//! depth of 14). Every predicate in this crate is **exact**: orientation
//! tests use `i64`, and point-to-segment distances are represented as exact
//! rationals ([`Dist2`]) compared by `i128` cross-multiplication, so
//! nearest-neighbour orderings never suffer floating-point ties.
//!
//! The kernel provides:
//!
//! * [`Point`], [`Segment`], [`Rect`] primitives,
//! * intersection predicates (segment/segment, segment/rect),
//! * exact squared distances ([`Dist2`]) from points to points, rectangles
//!   and segments,
//! * Morton (Z-order / locational) codes for the quadtree ([`morton`]),
//! * clockwise angular ordering around a vertex for polygon face traversal
//!   ([`angle`]).

pub mod angle;
pub mod dist;
pub mod morton;
mod point;
mod rect;
mod segment;

pub use dist::Dist2;
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;

/// Side of the 16K×16K world the paper's maps are normalized to (2^14).
pub const WORLD_SIZE: i32 = 1 << 14;

/// Maximum quadtree depth for a [`WORLD_SIZE`] world (blocks of side 1).
pub const MAX_DEPTH: u8 = 14;

/// The rectangle covering the whole normalized world, `[0, 16383]²` closed.
pub fn world_rect() -> Rect {
    Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1)
}

/// Sign of the cross product `(b - a) × (c - a)`.
///
/// Returns `> 0` if `c` lies to the left of the directed line `a -> b`,
/// `< 0` if to the right, and `0` if the three points are collinear.
/// Exact for all coordinates `|x| < 2^30`.
pub fn orient(a: Point, b: Point, c: Point) -> i64 {
    let abx = (b.x - a.x) as i64;
    let aby = (b.y - a.y) as i64;
    let acx = (c.x - a.x) as i64;
    let acy = (c.y - a.y) as i64;
    abx * acy - aby * acx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orient_signs() {
        let a = Point::new(0, 0);
        let b = Point::new(10, 0);
        assert!(orient(a, b, Point::new(5, 5)) > 0, "left turn");
        assert!(orient(a, b, Point::new(5, -5)) < 0, "right turn");
        assert_eq!(orient(a, b, Point::new(20, 0)), 0, "collinear");
    }

    #[test]
    fn orient_extreme_coordinates() {
        // No overflow at the corners of the world.
        let a = Point::new(0, 0);
        let b = Point::new(WORLD_SIZE - 1, WORLD_SIZE - 1);
        let c = Point::new(WORLD_SIZE - 1, 0);
        assert!(orient(a, b, c) < 0);
        assert!(orient(a, c, b) > 0);
    }

    #[test]
    fn world_rect_bounds() {
        let w = world_rect();
        assert!(w.contains_point(Point::new(0, 0)));
        assert!(w.contains_point(Point::new(16383, 16383)));
        assert!(!w.contains_point(Point::new(16384, 0)));
    }
}
