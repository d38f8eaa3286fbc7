//! Model-based tests: the disk B-tree must behave exactly like
//! `std::collections::BTreeSet<u64>` under arbitrary operation sequences,
//! across several page sizes (including degenerate 64-byte pages that force
//! deep trees) and a thrashing 2-frame buffer pool. Operation sequences are
//! drawn from fixed-seed [`lsdb_rng::StdRng`] streams, so every run checks
//! the same cases.

use lsdb_btree::BTree;
use lsdb_pager::{BufferPool, PoolCtx};
use lsdb_rng::StdRng;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Range(u64, u64),
    First(u64, u64),
    /// A shared-path scan that stops after three keys.
    Scan(u64, u64),
}

/// Small key domain (0..512) so inserts and removes collide often.
fn gen_op(rng: &mut StdRng) -> Op {
    let key = |rng: &mut StdRng| rng.gen_range(0u64..512);
    let span = |rng: &mut StdRng| {
        let a = rng.gen_range(0u64..512);
        let b = rng.gen_range(0u64..512);
        (a.min(b), a.max(b))
    };
    match rng.gen_range(0u32..10) {
        0..=3 => Op::Insert(key(rng)),
        4..=5 => Op::Remove(key(rng)),
        6 => Op::Contains(key(rng)),
        7 => {
            let (lo, hi) = span(rng);
            Op::Range(lo, hi)
        }
        8 => {
            let (lo, hi) = span(rng);
            Op::First(lo, hi)
        }
        _ => {
            let (lo, hi) = span(rng);
            Op::Scan(lo, hi)
        }
    }
}

/// The keys of `[lo, hi]` read through [`BTree::scan_range_ctx`].
fn keys_ctx(tree: &BTree, lo: u64, hi: u64, ctx: &mut PoolCtx) -> Vec<u64> {
    let mut out = Vec::new();
    let _ = tree.scan_range_ctx(lo, hi, ctx, &mut |k| {
        out.push(k);
        ControlFlow::Continue(())
    });
    out
}

fn run_model(page_size: usize, pool_pages: usize, ops: &[Op]) {
    let mut tree = BTree::new(BufferPool::new(page_size, pool_pages));
    let mut model: BTreeSet<u64> = BTreeSet::new();
    let mut ctx = PoolCtx::new();
    for op in ops {
        match *op {
            Op::Insert(k) => {
                assert_eq!(tree.insert(k), model.insert(k), "insert {k}");
            }
            Op::Remove(k) => {
                assert_eq!(tree.remove(k), model.remove(&k), "remove {k}");
            }
            Op::Contains(k) => {
                assert_eq!(tree.contains(k), model.contains(&k), "contains {k}");
            }
            Op::Range(lo, hi) => {
                let got = tree.collect_range(lo, hi);
                let want: Vec<u64> = model.range(lo..=hi).copied().collect();
                assert_eq!(got, want, "range {lo}..={hi}");
                ctx.reset();
                assert_eq!(keys_ctx(&tree, lo, hi, &mut ctx), want);
            }
            Op::First(lo, hi) => {
                let got = tree.first_in_range(lo, hi);
                let want = model.range(lo..=hi).next().copied();
                assert_eq!(got, want, "first {lo}..={hi}");
                let got_last = tree.last_in_range(lo, hi);
                let want_last = model.range(lo..=hi).next_back().copied();
                assert_eq!(got_last, want_last, "last {lo}..={hi}");
                ctx.reset();
                assert_eq!(tree.last_in_range_ctx(lo, hi, &mut ctx), want_last);
            }
            Op::Scan(lo, hi) => {
                let want: Vec<u64> = model.range(lo..=hi).take(3).copied().collect();
                let mut got = Vec::new();
                ctx.reset();
                let flow = tree.scan_range_ctx(lo, hi, &mut ctx, &mut |k| {
                    got.push(k);
                    if got.len() == 3 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert_eq!(got, want, "scan {lo}..={hi}, stop after 3");
                assert_eq!(flow.is_break(), want.len() == 3);
            }
        }
        assert_eq!(tree.len(), model.len() as u64);
    }
    tree.check_invariants();
    // Full contents agree at the end.
    assert_eq!(
        tree.collect_range(0, u64::MAX),
        model.iter().copied().collect::<Vec<_>>()
    );
}

fn run_cases(seed: u64, cases: usize, max_ops: usize, page_size: usize, pool_pages: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        let n = rng.gen_range(1usize..max_ops);
        let ops: Vec<Op> = (0..n).map(|_| gen_op(&mut rng)).collect();
        run_model(page_size, pool_pages, &ops);
    }
}

#[test]
fn matches_btreeset_tiny_pages() {
    run_cases(0xB7EE_0001, 64, 400, 64, 8);
}

#[test]
fn matches_btreeset_paper_pages() {
    run_cases(0xB7EE_0002, 64, 400, 1024, 16);
}

#[test]
fn matches_btreeset_thrashing_pool() {
    // A 2-frame pool: every structural operation spills; correctness must
    // not depend on residency.
    run_cases(0xB7EE_0003, 64, 250, 64, 2);
}

#[test]
fn dense_then_sparse_deletion_pattern() {
    let mut tree = BTree::new(BufferPool::new(64, 4));
    let mut model = BTreeSet::new();
    for k in 0..2000u64 {
        tree.insert(k);
        model.insert(k);
    }
    // Delete every third key, then every remaining even key.
    for k in (0..2000u64).step_by(3) {
        assert_eq!(tree.remove(k), model.remove(&k));
    }
    for k in (0..2000u64).step_by(2) {
        assert_eq!(tree.remove(k), model.remove(&k));
    }
    tree.check_invariants();
    assert_eq!(
        tree.collect_range(0, u64::MAX),
        model.iter().copied().collect::<Vec<_>>()
    );
}
