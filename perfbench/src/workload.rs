//! The two traffic mixes and the request streams they send.
//!
//! Every request is a pure function of `(seed, workload, k)`: a client
//! connection claims the next stream index `k` and generates its request,
//! and the correctness check regenerates the same request later. The map
//! is fixed (Charles county); the seed only moves the query points.

use lsdb_core::{PolygonalMap, SegId};
use lsdb_geom::{Point, Rect, WORLD_SIZE};
use lsdb_pmr::{PmrConfig, PmrQuadtree};
use lsdb_rng::StdRng;
use lsdb_server::Request;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's seven Table 2 query variants, round-robin over the
    /// three maps, every key distinct.
    Table2,
    /// Zipf-skewed picks from [`HOT_DISTINCT`] distinct requests.
    Hot,
}

impl Workload {
    pub const NAMES: [&'static str; 2] = ["table2", "hot"];

    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "table2" => Some(Workload::Table2),
            "hot" => Some(Workload::Hot),
            _ => None,
        }
    }
}

/// Distinct requests the `hot` workload draws from: far more than the
/// reply cache holds, so the Zipf head hits and the long tail misses.
const HOT_DISTINCT: usize = 1 << 20;
/// Zipf skew of the `hot` workload (θ = 1: the classic hot head).
const HOT_THETA: f64 = 1.0;
/// Side of a Range window: 0.01% of the world's area, as in the paper.
const WINDOW_SIDE: i32 = 164;

/// The seven workloads of the paper's Table 2, in its row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Point1,
    Point2,
    NearestTwoStage,
    NearestOneStage,
    PolygonTwoStage,
    PolygonOneStage,
    Range,
}

const VARIANTS: [Variant; 7] = [
    Variant::Point1,
    Variant::Point2,
    Variant::NearestTwoStage,
    Variant::NearestOneStage,
    Variant::PolygonTwoStage,
    Variant::PolygonOneStage,
    Variant::Range,
];

/// One request routed to one catalog map (an index into
/// [`crate::setup::MAP_NAMES`]).
#[derive(Clone, Debug)]
pub struct Frame {
    pub map: usize,
    pub request: Request,
}

/// A workload's request stream for one seed.
pub struct Plan<'a> {
    workload: Workload,
    map: &'a PolygonalMap,
    /// PMR leaf blocks: the first stage of the paper's 2-stage points.
    blocks: Vec<Rect>,
    seed: u64,
    /// Polygon walk cap (the in-process workbench's: twice the segment
    /// count, clamped to 1000..=6000).
    max_steps: u32,
    /// `hot` only: cumulative Zipf popularity of the distinct requests.
    zipf_cdf: Vec<f64>,
}

impl<'a> Plan<'a> {
    pub fn new(workload: Workload, map: &'a PolygonalMap, seed: u64) -> Plan<'a> {
        // Blocks come from a throwaway quadtree, as in the paper's
        // workbench, so the served indexes' buffer pools stay untouched.
        let blocks = PmrQuadtree::build(map, PmrConfig::default())
            .leaf_blocks()
            .iter()
            .map(|b| b.rect())
            .collect();
        let zipf_cdf = match workload {
            Workload::Hot => zipf_cdf(HOT_DISTINCT, HOT_THETA),
            Workload::Table2 => Vec::new(),
        };
        Plan {
            workload,
            map,
            blocks,
            seed,
            max_steps: (map.len() * 2).clamp(1000, 6000) as u32,
            zipf_cdf,
        }
    }

    /// Which distinct request stream index `k` sends. Equal keys name
    /// equal requests; only `hot` repeats keys.
    pub fn key(&self, k: u64) -> u64 {
        match self.workload {
            Workload::Table2 => k,
            Workload::Hot => {
                let u = keyed_rng(self.seed, 0x2117, k).next_f64();
                let rank = self.zipf_cdf.partition_point(|&c| c < u);
                rank.min(HOT_DISTINCT - 1) as u64
            }
        }
    }

    /// The request a key names. Variants cycle fastest, then maps, so
    /// every 21 consecutive keys cover each (variant, map) pair once.
    pub fn frame(&self, key: u64) -> Frame {
        let mut rng = keyed_rng(self.seed, self.workload as u64, key);
        let request = match VARIANTS[(key % 7) as usize] {
            Variant::Point1 => Request::Incident(self.endpoint(&mut rng).1),
            Variant::Point2 => {
                let (id, at) = self.endpoint(&mut rng);
                Request::Second { id, at }
            }
            Variant::NearestTwoStage => Request::Nearest(self.two_stage(&mut rng)),
            Variant::NearestOneStage => Request::Nearest(uniform(&mut rng)),
            Variant::PolygonTwoStage => Request::Polygon {
                at: self.two_stage(&mut rng),
                max_steps: self.max_steps,
            },
            Variant::PolygonOneStage => Request::Polygon {
                at: uniform(&mut rng),
                max_steps: self.max_steps,
            },
            Variant::Range => Request::Window(window(&mut rng)),
        };
        Frame {
            map: ((key / 7) % 3) as usize,
            request,
        }
    }

    /// A random endpoint of a random segment (queries 1 and 2).
    fn endpoint(&self, rng: &mut StdRng) -> (SegId, Point) {
        let i = rng.gen_range(0..self.map.segments.len());
        let s = &self.map.segments[i];
        (SegId(i as u32), if rng.gen_bool(0.5) { s.a } else { s.b })
    }

    /// A 2-stage point: a leaf block uniformly by count, then a uniform
    /// point inside it, so points follow the map's density.
    fn two_stage(&self, rng: &mut StdRng) -> Point {
        let b = self.blocks[rng.gen_range(0..self.blocks.len())];
        Point::new(
            rng.gen_range(b.min.x..=b.max.x),
            rng.gen_range(b.min.y..=b.max.y),
        )
    }
}

/// A 1-stage point: uniform over the world, often outside the county.
fn uniform(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0..WORLD_SIZE), rng.gen_range(0..WORLD_SIZE))
}

fn window(rng: &mut StdRng) -> Rect {
    let x = rng.gen_range(0..=WORLD_SIZE - WINDOW_SIDE);
    let y = rng.gen_range(0..=WORLD_SIZE - WINDOW_SIDE);
    Rect::new(x, y, x + WINDOW_SIDE - 1, y + WINDOW_SIDE - 1)
}

/// An independent generator per `(seed, stream, key)`: the inputs a key
/// names do not depend on which connection asked for it, or when.
fn keyed_rng(seed: u64, stream: u64, key: u64) -> StdRng {
    let mut z = seed ^ stream.rotate_left(40) ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    StdRng::seed_from_u64(z ^ (z >> 33))
}

/// Cumulative Zipf(θ) popularity over ranks `0..n` (rank 0 hottest).
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}
