//! Crash-recovery guard: an op log torn at *any* byte must recover to a
//! prefix of the op history, and an index replayed from that prefix must
//! be indistinguishable — results **and** paper counters — from an index
//! that applied the same ops live and never crashed.
//!
//! The op log is structure-agnostic (it journals `MapOp`s, not pages of
//! any particular tree), so the property is asserted for all four
//! disk-resident structures: R*-tree, R+-tree, PMR quadtree, and the
//! uniform-grid baseline. Byte-identity of the replayed index holds
//! because segment ids are assigned by table position (append order) and
//! every structure's maintenance path is deterministic.

use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, IndexKind};
use lsdb_core::{
    DurableMap, IndexConfig, MapOp, MemLog, PolygonalMap, QueryCtx, RecoveryReport, SpatialIndex,
};
use lsdb_geom::Rect;

/// The four structures under the durability contract.
fn four_kinds() -> [IndexKind; 4] {
    [
        IndexKind::RStar,
        IndexKind::RPlus,
        IndexKind::Pmr,
        IndexKind::Grid(64),
    ]
}

fn small_map() -> PolygonalMap {
    lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "crash-test",
        lsdb_tiger::CountyClass::Suburban,
        120,
        0x0C4A,
    ))
}

/// Deterministic mixed op history: insert every segment of `map` in
/// order, and after every tenth insert delete the segment five back —
/// so recovery prefixes exercise both op kinds and the append-only id
/// assignment.
fn op_history(map: &PolygonalMap) -> Vec<MapOp> {
    let mut ops = Vec::new();
    for (i, seg) in map.segments.iter().enumerate() {
        ops.push(MapOp::Insert(*seg));
        if i % 10 == 9 {
            ops.push(MapOp::Delete(lsdb_core::SegId((i - 5) as u32)));
        }
    }
    ops
}

/// Apply an op prefix directly to a fresh index — the "never crashed"
/// side of the equality.
fn apply_clean(kind: IndexKind, ops: &[MapOp]) -> Box<dyn SpatialIndex> {
    let empty = PolygonalMap::new("clean", Vec::new());
    let mut index = build_index(kind, &empty, IndexConfig::default());
    for op in ops {
        match *op {
            MapOp::Insert(seg) => {
                let id = index.seg_table_mut().push(seg);
                index.insert(id);
            }
            MapOp::Delete(id) => {
                index.remove(id);
            }
        }
    }
    index
}

/// The map of segments an op prefix has inserted (deletes keep their
/// table rows), which is what the query-stream generators need.
fn prefix_map(ops: &[MapOp]) -> PolygonalMap {
    let segs = ops
        .iter()
        .filter_map(|op| match op {
            MapOp::Insert(seg) => Some(*seg),
            MapOp::Delete(_) => None,
        })
        .collect();
    PolygonalMap::new("prefix", segs)
}

fn probe_window() -> Rect {
    Rect::new(0, 0, 8192, 8192)
}

/// Assert the recovered index answers exactly as the clean one: the
/// seven paper workloads (averaged counters and result sizes must match
/// to the bit) plus one exact result-id comparison. `wb` is `None` only
/// for the empty-prefix recoveries (the stream generators need at least
/// one segment).
fn assert_byte_identical(
    kind: IndexKind,
    cut: usize,
    recovered: &dyn SpatialIndex,
    clean: &dyn SpatialIndex,
    wb: Option<&QueryWorkbench>,
) {
    for &w in Workload::ALL.iter() {
        let Some(wb) = wb else { break };
        let a = wb.run(w, recovered);
        let b = wb.run(w, clean);
        assert_eq!(
            a,
            b,
            "{} after a cut at byte {cut}: workload {} diverged from the clean index",
            kind.label(),
            w.label()
        );
    }
    let mut ctx = QueryCtx::new();
    let ids_a = recovered.window(probe_window(), &mut ctx);
    ctx.reset();
    let ids_b = clean.window(probe_window(), &mut ctx);
    assert_eq!(
        ids_a,
        ids_b,
        "{} after a cut at byte {cut}: window result ids diverged",
        kind.label(),
    );
}

/// Journal `ops` one append at a time into a fresh in-memory log over an
/// empty base map; return the log's bytes.
fn journal(ops: &[MapOp]) -> Vec<u8> {
    let log = MemLog::new();
    let (mut dmap, _) = DurableMap::open(Box::new(log.clone()), &[]).unwrap();
    for op in ops {
        dmap.append(*op).unwrap();
    }
    log.bytes()
}

/// Reopen photographed log bytes over an empty base map, with a handle on
/// the reopened log.
fn reopen(bytes: &[u8]) -> (DurableMap, RecoveryReport, MemLog) {
    let log = MemLog::from_bytes(bytes.to_vec());
    let (dmap, report) = DurableMap::open(Box::new(log.clone()), &[]).unwrap();
    (dmap, report, log)
}

/// Replay `report` into a fresh index of each structure and require it to
/// answer exactly as one that applied the same ops live.
fn assert_replay_is_clean(cut: usize, report: &RecoveryReport) {
    let pm = prefix_map(&report.ops);
    let wb = (!pm.is_empty()).then(|| QueryWorkbench::new(&pm, 8, 0xC4A5));
    for kind in four_kinds() {
        let empty = PolygonalMap::new("recovered", Vec::new());
        let mut recovered = build_index(kind, &empty, IndexConfig::default());
        report.replay_into(recovered.as_mut());
        let clean = apply_clean(kind, &report.ops);
        assert_byte_identical(kind, cut, recovered.as_ref(), clean.as_ref(), wb.as_ref());
    }
}

/// Tear the (in-memory) op log at sampled byte offsets — including 0, 1,
/// and the exact end — and require every recovery to be a prefix of the
/// history that queries byte-identically to clean application.
#[test]
fn torn_log_recovers_a_prefix_identical_to_clean_application() {
    let map = small_map();
    let ops = op_history(&map);
    let full = journal(&ops);

    // ~16 evenly spread interior cuts plus the degenerate edges.
    let mut cuts = vec![0, 1, full.len() - 1, full.len()];
    let stride = (full.len() / 16).max(1);
    cuts.extend((1..16).map(|i| i * stride));
    cuts.sort_unstable();
    cuts.dedup();

    let mut prefixes_seen = std::collections::BTreeSet::new();
    for cut in cuts {
        let (_, report, _) = reopen(&full[..cut]);
        let p = report.ops.len();
        assert!(p <= ops.len(), "recovered more ops than were ever written");
        assert_eq!(
            report.ops,
            &ops[..p],
            "recovery at byte {cut} is not a prefix of the op history \
             ({} bytes discarded)",
            report.discarded
        );
        prefixes_seen.insert(p);
        assert_replay_is_clean(cut, &report);
    }
    assert!(
        prefixes_seen.len() > 2,
        "cut sample degenerated: every tear recovered the same prefix \
         ({prefixes_seen:?})"
    );
    // The final cut is the whole log: nothing may be lost.
    assert_eq!(prefixes_seen.last(), Some(&ops.len()));
}

/// Two crash generations: tear the log mid-record, reopen (the torn tail
/// is cut), append the rest of the history, and tear again. Every
/// recovery must hold the ops of the first generation that survived plus
/// a prefix of the second, and replay cleanly.
#[test]
fn a_log_torn_twice_recovers_the_ops_of_both_generations() {
    let map = small_map();
    let ops = op_history(&map);
    let gen1 = journal(&ops[..ops.len() / 2]);

    // First crash: a few bytes short of the first generation's end.
    let (mut dmap, report, log) = reopen(&gen1[..gen1.len() - 7]);
    let kept = report.ops.len();
    assert_eq!(report.ops, &ops[..kept]);
    assert!(report.discarded > 0, "the first tear falls inside a record");
    let cut1 = log.bytes().len(); // the first generation's surviving bytes
    for op in &ops[kept..] {
        dmap.append(*op).unwrap();
    }
    let full = log.bytes();
    drop(dmap);

    // Second crash: anywhere in the second generation.
    let mid = (cut1 + full.len()) / 2;
    for cut in [cut1, cut1 + 1, mid, full.len() - 1, full.len()] {
        let (_, report, _) = reopen(&full[..cut]);
        let p = report.ops.len();
        assert!(p >= kept, "first-generation ops lost at cut {cut}");
        assert_eq!(report.ops, &ops[..p], "cut at {cut}");
        if cut == full.len() {
            assert_eq!(p, ops.len(), "nothing may be lost from a whole log");
        }
        assert_replay_is_clean(cut, &report);
    }
}
