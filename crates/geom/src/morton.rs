//! Morton (Z-order) locational codes for the PMR quadtree.
//!
//! A quadtree block at depth `d` in the 16K×16K world has side `2^(14-d)`
//! and a lower-left corner whose coordinates are multiples of that side.
//! Its locational code is the bit interleaving of the lower-left corner's
//! `x` and `y` coordinates (x in the even bit positions), exactly as in the
//! paper's linear-quadtree implementation. Sorting (code, depth) pairs
//! yields the Z-order traversal of the decomposition, which is what keeps
//! the line segments of one bucket contiguous in the B-tree.

use crate::{Point, Rect, MAX_DEPTH, WORLD_SIZE};

/// Interleave the low 16 bits of `x` (even positions) and `y` (odd
/// positions) into a 32-bit Morton code.
pub fn interleave(x: u32, y: u32) -> u32 {
    debug_assert!(x < (1 << 16) && y < (1 << 16));
    spread(x) | (spread(y) << 1)
}

/// Inverse of [`interleave`].
pub fn deinterleave(code: u32) -> (u32, u32) {
    (unspread(code), unspread(code >> 1))
}

fn spread(v: u32) -> u32 {
    let mut v = v & 0xFFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

fn unspread(v: u32) -> u32 {
    let mut v = v & 0x5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF;
    v
}

/// A quadtree block: depth plus lower-left corner.
///
/// Depth 0 is the whole world; depth [`MAX_DEPTH`] is a single pixel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Block {
    /// Depth in the quadtree, `0..=MAX_DEPTH`.
    pub depth: u8,
    /// Lower-left corner; multiples of the block side.
    pub x: i32,
    pub y: i32,
}

impl Block {
    /// The root block covering the whole world.
    pub const ROOT: Block = Block {
        depth: 0,
        x: 0,
        y: 0,
    };

    /// Side length of the block.
    pub fn side(&self) -> i32 {
        WORLD_SIZE >> self.depth
    }

    /// The closed region covered by this block: `[x, x+side) × [y, y+side)`
    /// in continuous space, represented as the closed integer rect
    /// `[x, x+side-1] × [y, y+side-1]`.
    ///
    /// Sibling block regions are disjoint under this convention; a segment
    /// endpoint lying exactly on an internal decomposition line belongs to
    /// the block on its upper/right side, but segments are inserted into
    /// every block whose **continuous** region they touch (see
    /// [`Block::region_touches_segment`]).
    pub fn rect(&self) -> Rect {
        Rect::new(
            self.x,
            self.y,
            self.x + self.side() - 1,
            self.y + self.side() - 1,
        )
    }

    /// The block's region extended by one grid unit on the top and right so
    /// that geometry lying exactly on the upper decomposition lines is
    /// also considered to touch this block. This mirrors the paper's
    /// continuous-space block semantics where a q-edge that only grazes a
    /// block boundary still belongs to the block.
    fn closed_region(&self) -> Rect {
        let s = self.side();
        Rect::new(
            self.x,
            self.y,
            (self.x + s).min(WORLD_SIZE - 1),
            (self.y + s).min(WORLD_SIZE - 1),
        )
    }

    /// Does a line segment touch this block's (closed) region?
    pub fn region_touches_segment(&self, seg: &crate::Segment) -> bool {
        self.closed_region().intersects_segment(seg)
    }

    /// Morton locational code of the lower-left corner.
    pub fn code(&self) -> u32 {
        interleave(self.x as u32, self.y as u32)
    }

    /// Reconstruct a block from its code and depth.
    pub fn from_code(code: u32, depth: u8) -> Block {
        let (x, y) = deinterleave(code);
        Block {
            depth,
            x: x as i32,
            y: y as i32,
        }
    }

    /// The four children (SW, SE, NW, NE in Morton order).
    ///
    /// Panics if the block is already at [`MAX_DEPTH`].
    pub fn children(&self) -> [Block; 4] {
        assert!(self.depth < MAX_DEPTH, "cannot split a pixel block");
        let h = self.side() / 2;
        let d = self.depth + 1;
        [
            Block {
                depth: d,
                x: self.x,
                y: self.y,
            },
            Block {
                depth: d,
                x: self.x + h,
                y: self.y,
            },
            Block {
                depth: d,
                x: self.x,
                y: self.y + h,
            },
            Block {
                depth: d,
                x: self.x + h,
                y: self.y + h,
            },
        ]
    }

    /// The parent block (None for the root).
    pub fn parent(&self) -> Option<Block> {
        if self.depth == 0 {
            return None;
        }
        let s = self.side() * 2;
        Some(Block {
            depth: self.depth - 1,
            x: self.x & !(s - 1),
            y: self.y & !(s - 1),
        })
    }

    /// The leaf-depth block containing point `p`, at a given depth.
    pub fn containing(p: Point, depth: u8) -> Block {
        debug_assert!(depth <= MAX_DEPTH);
        let mask = !((WORLD_SIZE >> depth) - 1);
        Block {
            depth,
            x: p.x & mask,
            y: p.y & mask,
        }
    }

    /// Exact squared distance from `p` to the block region.
    pub fn dist2_point(&self, p: Point) -> i64 {
        self.closed_region().dist2_point(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Segment;

    #[test]
    fn interleave_roundtrip() {
        for &(x, y) in &[(0u32, 0u32), (1, 0), (0, 1), (12345, 9876), (16383, 16383)] {
            let c = interleave(x, y);
            assert_eq!(deinterleave(c), (x, y));
        }
    }

    #[test]
    fn interleave_known_values() {
        // x bits land in even positions.
        assert_eq!(interleave(1, 0), 0b01);
        assert_eq!(interleave(0, 1), 0b10);
        assert_eq!(interleave(3, 0), 0b0101);
        assert_eq!(interleave(0b10, 0b11), 0b1110);
    }

    #[test]
    fn morton_order_is_z_order() {
        // Within a 2x2 arrangement of depth-1 blocks, Morton order is
        // SW, SE, NW, NE.
        let half = WORLD_SIZE / 2;
        let sw = Block {
            depth: 1,
            x: 0,
            y: 0,
        };
        let se = Block {
            depth: 1,
            x: half,
            y: 0,
        };
        let nw = Block {
            depth: 1,
            x: 0,
            y: half,
        };
        let ne = Block {
            depth: 1,
            x: half,
            y: half,
        };
        let mut codes = [sw.code(), se.code(), nw.code(), ne.code()];
        let orig = codes;
        codes.sort_unstable();
        assert_eq!(codes, orig);
    }

    #[test]
    fn children_cover_parent_disjointly() {
        let b = Block {
            depth: 2,
            x: 4096,
            y: 8192,
        };
        let kids = b.children();
        let area: i64 = kids
            .iter()
            .map(|k| (k.side() as i64) * (k.side() as i64))
            .sum();
        assert_eq!(area, (b.side() as i64) * (b.side() as i64));
        for k in &kids {
            assert!(b.rect().contains_rect(&k.rect()));
            assert_eq!(k.parent(), Some(b));
        }
        // Pairwise disjoint (exclusive regions).
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!kids[i].rect().intersects(&kids[j].rect()));
            }
        }
    }

    #[test]
    fn code_roundtrip_through_block() {
        let b = Block {
            depth: 5,
            x: 512 * 3,
            y: 512 * 7,
        };
        assert_eq!(Block::from_code(b.code(), 5), b);
    }

    #[test]
    fn containing_point() {
        let p = Point::new(5000, 12000);
        let b = Block::containing(p, 3);
        assert!(b.rect().contains_point(p));
        assert_eq!(b.side(), WORLD_SIZE / 8);
        assert_eq!(b.x % b.side(), 0);
        assert_eq!(b.y % b.side(), 0);
        assert_eq!(Block::containing(p, 0), Block::ROOT);
    }

    #[test]
    fn region_touches_segment_on_boundary() {
        // A segment running along the top edge of the SW quadrant touches
        // both the SW and NW quadrants in continuous space.
        let half = WORLD_SIZE / 2;
        let seg = Segment::new(Point::new(10, half), Point::new(100, half));
        let kids = Block::ROOT.children();
        assert!(kids[0].region_touches_segment(&seg), "SW (grazes top edge)");
        assert!(kids[2].region_touches_segment(&seg), "NW (contains it)");
        assert!(!kids[1].region_touches_segment(&seg), "SE");
        assert!(!kids[3].region_touches_segment(&seg), "NE");
    }

    #[test]
    fn dist2_point_to_block() {
        let b = Block {
            depth: 1,
            x: 0,
            y: 0,
        };
        assert_eq!(b.dist2_point(Point::new(100, 100)), 0);
        let far = Point::new(WORLD_SIZE - 1, WORLD_SIZE - 1);
        assert!(b.dist2_point(far) > 0);
    }

    #[test]
    #[should_panic]
    fn cannot_split_pixel() {
        let b = Block {
            depth: MAX_DEPTH,
            x: 0,
            y: 0,
        };
        let _ = b.children();
    }
}
