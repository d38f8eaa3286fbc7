//! Model-based check of the buffer pool against a reference LRU simulator.
//!
//! The model tracks which pages an ideal LRU cache of the same capacity
//! would hold and how many misses it would charge; the pool must match the
//! miss count exactly and must never lose written data. Deterministic:
//! cases are drawn from a fixed-seed [`lsdb_rng::StdRng`] stream.

use lsdb_pager::{BufferPool, PageId};
use lsdb_rng::StdRng;
use std::collections::{HashMap, VecDeque};

const PAGE: usize = 64;

/// Reference LRU cache: `front` is least recently used, `back` most.
struct LruModel {
    capacity: usize,
    resident: VecDeque<PageId>,
    reads: u64,
}

impl LruModel {
    fn new(capacity: usize) -> Self {
        LruModel {
            capacity,
            resident: VecDeque::new(),
            reads: 0,
        }
    }

    /// An access to `pid`: moves it to MRU, evicting the LRU page when the
    /// cache is full. Fresh allocations pass `counts_read_if_absent =
    /// false` because a brand-new zeroed page costs no disk read.
    fn touch(&mut self, pid: PageId, counts_read_if_absent: bool) {
        if let Some(i) = self.resident.iter().position(|&p| p == pid) {
            self.resident.remove(i);
        } else {
            if counts_read_if_absent {
                self.reads += 1;
            }
            if self.resident.len() == self.capacity {
                self.resident.pop_front();
            }
        }
        self.resident.push_back(pid);
    }

    fn drop_page(&mut self, pid: PageId) {
        if let Some(i) = self.resident.iter().position(|&p| p == pid) {
            self.resident.remove(i);
        }
    }
}

#[test]
fn pool_matches_model() {
    let mut rng = StdRng::seed_from_u64(0x10DE1);
    for case in 0..200usize {
        let capacity = 1 + case % 5;
        // A single shard, so the whole pool is one global LRU — exactly
        // what the reference model simulates.
        let mut pool = BufferPool::with_shards(PAGE, capacity, 1);
        let mut model = LruModel::new(capacity);
        // Last value written to byte 3 of every live page.
        let mut shadow: HashMap<PageId, u8> = HashMap::new();
        let mut live: Vec<PageId> = Vec::new();

        let ops = rng.gen_range(1usize..120);
        for _ in 0..ops {
            match rng.gen_range(0u32..13) {
                0..=2 => {
                    let pid = pool.allocate();
                    model.touch(pid, false);
                    shadow.insert(pid, 0);
                    live.push(pid);
                }
                3..=6 if !live.is_empty() => {
                    let pid = live[rng.gen_range(0..live.len())];
                    let byte = rng.gen_range(0u32..=255) as u8;
                    pool.with_page_mut(pid, |d| d[3] = byte);
                    model.touch(pid, true);
                    shadow.insert(pid, byte);
                }
                7..=9 if !live.is_empty() => {
                    let pid = live[rng.gen_range(0..live.len())];
                    let expect = shadow[&pid];
                    pool.with_page(pid, |d| assert_eq!(d[3], expect, "lost write to {pid:?}"));
                    model.touch(pid, true);
                }
                10 if !live.is_empty() => {
                    let i = rng.gen_range(0..live.len());
                    let pid = live.swap_remove(i);
                    pool.free(pid);
                    model.drop_page(pid);
                    shadow.remove(&pid);
                }
                11 => pool.flush(),
                12 => {
                    pool.clear();
                    model.resident.clear();
                }
                _ => {}
            }
            assert_eq!(
                pool.stats().reads,
                model.reads,
                "case {case}: pool and model disagree on miss count"
            );
            assert_eq!(
                pool.allocated_pages() as usize,
                live.len(),
                "case {case}: allocated-page count drifted"
            );
        }

        // Every live page must still hold its last written value, even the
        // ones that were evicted or cleared along the way.
        for &pid in &live {
            let expect = shadow[&pid];
            pool.with_page(pid, |d| assert_eq!(d[3], expect, "final check {pid:?}"));
        }
    }
}
