//! Benchmark harness reproducing every table and figure of the paper.
//!
//! Each experiment is a binary (see `src/bin/`):
//!
//! | target      | reproduces |
//! |-------------|------------|
//! | `table1`    | Table 1 — build statistics (size, disk accesses, CPU seconds) |
//! | `table2`    | Table 2 — per-query metrics for Charles county |
//! | `fig6`      | Figure 6 — build disk accesses by page size × buffer size |
//! | `figures`   | Figures 7-9 — normalized ranges over the six counties |
//! | `occupancy` | §7 — page/bucket occupancy audit + PMR threshold sweep |
//! | `netcost`   | in-process vs over-the-wire query cost (lsdb-server) |
//!
//! Shared infrastructure lives here: index construction behind one enum,
//! the five query workloads with metric accumulation, plain-text table
//! rendering, and [`WorkloadConfig`] — the typed run configuration every
//! binary builds with [`WorkloadConfig::from_args`]: flags (`--scale`,
//! `--queries`, `--threads`, `--map-cache`, `--json`) override the
//! defaults (1.0 / 1000 / 1 / `target/lsdb-maps` / off).

pub mod json;
pub mod report;
pub mod wire;
pub mod workloads;

use lsdb_core::{IndexConfig, PolygonalMap, SpatialIndex};
use lsdb_grid::UniformGrid;
use lsdb_pmr::{PmrConfig, PmrQuadtree};
use lsdb_rplus::RPlusTree;
use lsdb_rtree::{RTree, RTreeKind};
use lsdb_tiger::CountySpec;
use std::path::PathBuf;
use std::time::Instant;

/// Which index structure to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    RStar,
    RPlus,
    Pmr,
    /// PMR quadtree with a non-default splitting threshold (ablation).
    PmrThreshold(usize),
    /// Guttman baselines (ablation).
    RQuadratic,
    RLinear,
    /// Uniform grid baseline (ablation), cells per side.
    Grid(i32),
    /// Representative-point 4-d grid (the paper's §2 counter-example),
    /// cells per axis.
    Repr(i32),
}

impl IndexKind {
    /// The paper's three structures, in its reporting order.
    pub fn paper_three() -> [IndexKind; 3] {
        [IndexKind::RStar, IndexKind::RPlus, IndexKind::Pmr]
    }

    pub fn label(self) -> String {
        match self {
            IndexKind::RStar => "R*".into(),
            IndexKind::RPlus => "R+".into(),
            IndexKind::Pmr => "PMR".into(),
            IndexKind::PmrThreshold(t) => format!("PMR(t={t})"),
            IndexKind::RQuadratic => "R(quad)".into(),
            IndexKind::RLinear => "R(lin)".into(),
            IndexKind::Grid(g) => format!("grid({g})"),
            IndexKind::Repr(g) => format!("repr({g}^4)"),
        }
    }
}

/// Build the chosen index over `map` with the given page configuration.
pub fn build_index(kind: IndexKind, map: &PolygonalMap, cfg: IndexConfig) -> Box<dyn SpatialIndex> {
    match kind {
        IndexKind::RStar => Box::new(RTree::build(map, cfg, RTreeKind::RStar)),
        IndexKind::RQuadratic => Box::new(RTree::build(map, cfg, RTreeKind::Quadratic)),
        IndexKind::RLinear => Box::new(RTree::build(map, cfg, RTreeKind::Linear)),
        IndexKind::RPlus => Box::new(RPlusTree::build(map, cfg)),
        IndexKind::Pmr => Box::new(PmrQuadtree::build(
            map,
            PmrConfig {
                index: cfg,
                ..Default::default()
            },
        )),
        IndexKind::PmrThreshold(t) => Box::new(PmrQuadtree::build(
            map,
            PmrConfig {
                threshold: t,
                index: cfg,
                ..Default::default()
            },
        )),
        IndexKind::Grid(g) => Box::new(UniformGrid::build(map, cfg, g)),
        IndexKind::Repr(g) => Box::new(lsdb_repr::ReprGrid::build(map, cfg, g)),
    }
}

/// Table 1 measurements for one (map, structure) pair.
#[derive(Clone, Debug)]
pub struct BuildReport {
    pub kind: IndexKind,
    pub map_name: String,
    pub segments: usize,
    pub size_kbytes: f64,
    /// Index-page reads + writes during the build (flush included: the
    /// structure is disk-resident when the build is done).
    pub disk_accesses: u64,
    pub cpu_seconds: f64,
}

/// Build an index while measuring Table 1's three quantities.
pub fn measure_build(
    kind: IndexKind,
    map: &PolygonalMap,
    cfg: IndexConfig,
) -> (Box<dyn SpatialIndex>, BuildReport) {
    let start = Instant::now();
    let mut index = build_index(kind, map, cfg);
    let cpu_seconds = start.elapsed().as_secs_f64();
    index.clear_cache(); // flush dirty pages: the build's final writes
    let stats = index.stats();
    let report = BuildReport {
        kind,
        map_name: map.name.clone(),
        segments: map.len(),
        size_kbytes: index.size_bytes() as f64 / 1024.0,
        disk_accesses: stats.disk.total(),
        cpu_seconds,
    };
    index.reset_stats();
    (index, report)
}

/// Typed run configuration for the experiment binaries: the defaults,
/// overridden by CLI flags ([`WorkloadConfig::from_args`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Scale factor for the county segment counts (default 1.0; the smoke
    /// suite runs the full pipeline around 0.02).
    pub scale: f64,
    /// Queries per workload type (default 1000, as in the paper).
    pub queries: usize,
    /// Worker threads for the query batches (default 1 — the paper's
    /// sequential runs; counters are identical at any thread count).
    pub threads: usize,
    /// Directory for cached generated maps.
    pub map_cache: PathBuf,
    /// If set, binaries additionally dump their measurements as JSON to
    /// this path (machine-readable trajectory; see [`crate::json`]).
    pub json: Option<PathBuf>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            scale: 1.0,
            queries: 1000,
            threads: 1,
            map_cache: PathBuf::from("target/lsdb-maps"),
            json: None,
        }
    }
}

impl WorkloadConfig {
    pub const USAGE: &'static str = "options:
  --scale <f64>       county size multiplier        (default 1.0)
  --queries <n>       queries per workload type     (default 1000)
  --threads <n>       query worker threads          (default 1)
  --map-cache <dir>   cached generated maps         (default target/lsdb-maps)
  --json <path>       also write results as JSON    (default off)
  -h, --help          print this help";

    /// The defaults overridden by the process's CLI flags. Prints usage
    /// and exits on `--help` or a malformed flag — this is the one
    /// constructor meant for `main`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::USAGE);
            std::process::exit(0);
        }
        match Self::default().try_apply_args(args) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}\n{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Apply `--flag value` / `--flag=value` pairs on top of `self`.
    pub fn try_apply_args(
        mut self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| it.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--scale" => self.scale = parse_flag(&value()?, "--scale")?,
                "--queries" => self.queries = parse_flag(&value()?, "--queries")?,
                "--threads" => {
                    self.threads = parse_flag(&value()?, "--threads")?;
                    if self.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--map-cache" => self.map_cache = PathBuf::from(value()?),
                "--json" => self.json = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(self)
    }

    /// The six counties at the configured scale, generated (or loaded from
    /// the cache).
    pub fn counties(&self) -> Vec<PolygonalMap> {
        lsdb_tiger::the_six_counties()
            .into_iter()
            .map(|spec| self.scaled_county(spec))
            .collect()
    }

    /// One county at the configured scale.
    pub fn county(&self, name: &str) -> PolygonalMap {
        let spec = lsdb_tiger::county(name).unwrap_or_else(|| panic!("unknown county {name}"));
        self.scaled_county(spec)
    }

    fn scaled_county(&self, spec: CountySpec) -> PolygonalMap {
        let target = ((spec.target_segments as f64 * self.scale).round() as usize).max(200);
        let spec = spec.with_target(target);
        lsdb_tiger::io::load_or_generate(&spec, &self.map_cache)
    }
}

fn parse_flag<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value '{v}' for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_map() -> PolygonalMap {
        let spec =
            lsdb_tiger::CountySpec::new("bench-test", lsdb_tiger::CountyClass::Urban, 600, 99);
        lsdb_tiger::generate(&spec)
    }

    #[test]
    fn build_index_all_kinds() {
        let map = tiny_map();
        let cfg = IndexConfig {
            page_size: 512,
            pool_pages: 16,
        };
        for kind in [
            IndexKind::RStar,
            IndexKind::RPlus,
            IndexKind::Pmr,
            IndexKind::PmrThreshold(8),
            IndexKind::RQuadratic,
            IndexKind::RLinear,
            IndexKind::Grid(16),
            IndexKind::Repr(8),
        ] {
            let idx = build_index(kind, &map, cfg);
            assert_eq!(idx.len(), map.len(), "{kind:?}");
        }
    }

    #[test]
    fn measure_build_reports_sane_numbers() {
        let map = tiny_map();
        let cfg = IndexConfig::default();
        let (idx, rep) = measure_build(IndexKind::Pmr, &map, cfg);
        assert_eq!(rep.segments, map.len());
        assert!(rep.size_kbytes > 1.0);
        assert!(
            rep.disk_accesses > 0,
            "a 16-page pool cannot hold the build"
        );
        assert!(rep.cpu_seconds > 0.0);
        // Stats were reset after the build measurement.
        assert_eq!(idx.stats().disk.total(), 0);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(IndexKind::RStar.label(), "R*");
        assert_eq!(IndexKind::PmrThreshold(64).label(), "PMR(t=64)");
        assert_eq!(IndexKind::Grid(32).label(), "grid(32)");
    }

    #[test]
    fn workload_config_parses_cli_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cfg = WorkloadConfig::default().try_apply_args(args(&[])).unwrap();
        assert_eq!((cfg.scale, cfg.queries, cfg.threads), (1.0, 1000, 1));
        let cfg = WorkloadConfig::default()
            .try_apply_args(args(&["--scale", "0.1", "--queries=200", "--threads", "8"]))
            .unwrap();
        assert_eq!(cfg.scale, 0.1);
        assert_eq!(cfg.queries, 200);
        assert_eq!(cfg.threads, 8);
        let cfg = WorkloadConfig::default()
            .try_apply_args(args(&["--map-cache=/tmp/x"]))
            .unwrap();
        assert_eq!(cfg.map_cache, PathBuf::from("/tmp/x"));
        assert_eq!(cfg.json, None);
        let cfg = WorkloadConfig::default()
            .try_apply_args(args(&["--json", "/tmp/out.json"]))
            .unwrap();
        assert_eq!(cfg.json, Some(PathBuf::from("/tmp/out.json")));
        assert!(WorkloadConfig::default()
            .try_apply_args(args(&["--queries"]))
            .is_err());
        assert!(WorkloadConfig::default()
            .try_apply_args(args(&["--queries", "lots"]))
            .is_err());
        assert!(WorkloadConfig::default()
            .try_apply_args(args(&["--threads", "0"]))
            .is_err());
        assert!(WorkloadConfig::default()
            .try_apply_args(args(&["--frobnicate"]))
            .is_err());
    }
}
