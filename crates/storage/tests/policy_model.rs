//! The O(1) LRU and FIFO policies agree with a naive recency-vector model
//! on seeded random streams of inserts, accesses, removals and evictions.

use cachecloud_sim::{check_seeds, SimRng};
use cachecloud_storage::{FifoPolicy, LruPolicy, ReplacementPolicy};
use cachecloud_types::{ByteSize, DocId, SimTime};

/// Documents in eviction order, oldest first: the victim is `order[0]`.
#[derive(Debug, Default)]
struct Model {
    order: Vec<u32>,
    /// Accesses refresh recency (LRU); FIFO ignores them.
    lru: bool,
}

impl Model {
    fn move_to_back(&mut self, doc: u32) {
        self.order.retain(|d| *d != doc);
        self.order.push(doc);
    }
    fn access(&mut self, doc: u32) {
        if self.lru && self.order.contains(&doc) {
            self.move_to_back(doc);
        }
    }
    fn remove(&mut self, doc: u32) {
        self.order.retain(|d| *d != doc);
    }
    fn victim(&self) -> Option<u32> {
        self.order.first().copied()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    Access(u32),
    Remove(u32),
    /// Take the victim and remove it, as a store making room does.
    Evict,
}

fn draw_op(rng: &mut SimRng, docs: u64) -> Op {
    let doc = rng.range_u64(0, docs) as u32;
    match rng.next_usize(10) {
        0..=3 => Op::Insert(doc),
        4..=6 => Op::Access(doc),
        7 => Op::Remove(doc),
        _ => Op::Evict,
    }
}

fn url(doc: u32) -> DocId {
    DocId::from_url(format!("/p/{doc}"))
}

fn doc_of(id: &DocId) -> u32 {
    id.url().trim_start_matches("/p/").parse().unwrap()
}

/// Replays `ops` into `policy` and `model`, checking the victim and `len`
/// after every step; returns the evicted documents in order.
fn replay(policy: &mut dyn ReplacementPolicy, model: &mut Model, ops: &[Op]) -> Vec<u32> {
    let mut evicted = Vec::new();
    for (t, op) in ops.iter().enumerate() {
        let now = SimTime::from_micros(t as u64);
        // Each step builds its own `DocId`, so a lookup never shares the
        // stored key's allocation.
        match *op {
            Op::Insert(d) => {
                policy.on_insert(&url(d), ByteSize::from_bytes(1), now);
                model.move_to_back(d);
            }
            Op::Access(d) => {
                policy.on_access(&url(d), now);
                model.access(d);
            }
            Op::Remove(d) => {
                policy.on_remove(&url(d));
                model.remove(d);
            }
            Op::Evict => {
                let victim = policy.victim();
                assert_eq!(victim.as_ref().map(doc_of), model.victim(), "step {t}");
                if let Some(v) = victim {
                    policy.on_remove(&v);
                    model.remove(doc_of(&v));
                    evicted.push(doc_of(&v));
                }
            }
        }
        assert_eq!(
            policy.victim().as_ref().map(doc_of),
            model.victim(),
            "step {t}"
        );
        assert_eq!(policy.len(), model.order.len(), "step {t}");
    }
    evicted
}

#[test]
fn lru_and_fifo_match_the_reference_model() {
    check_seeds(256, |rng| {
        let docs = rng.range_u64(1, 40);
        let len = rng.range_u64(1, 400) as usize;
        let ops: Vec<Op> = (0..len).map(|_| draw_op(rng, docs)).collect();

        let mut lru = LruPolicy::new();
        let mut lru_model = Model {
            lru: true,
            ..Model::default()
        };
        let lru_victims = replay(&mut lru, &mut lru_model, &ops);

        let mut fifo = FifoPolicy::new();
        let mut fifo_model = Model::default();
        let fifo_victims = replay(&mut fifo, &mut fifo_model, &ops);

        // Without accesses the two orders are the same.
        if !ops.iter().any(|op| matches!(op, Op::Access(_))) {
            assert_eq!(lru_victims, fifo_victims);
        }
    });
}
