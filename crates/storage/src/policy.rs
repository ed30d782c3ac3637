//! Replacement policies: LRU (the paper's choice for Figure 9), FIFO, LFU
//! and GreedyDual-Size (Cao & Irani, the paper's citation \[3\]).

use std::collections::BTreeMap;

use cachecloud_types::{ByteSize, DocId, DocMap, SimTime};

/// Chooses eviction victims for a [`crate::CacheStore`].
///
/// The store drives the policy: it notifies inserts, accesses and removals,
/// and asks for a victim when it needs space. Policies must return a victim
/// that is currently resident (the store enforces this with a debug
/// assertion).
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Short policy name for reports ("lru", "fifo", "lfu", "gds").
    fn name(&self) -> &'static str;

    /// A document copy entered the store.
    fn on_insert(&mut self, doc: &DocId, size: ByteSize, now: SimTime);

    /// A resident document copy was read.
    fn on_access(&mut self, doc: &DocId, now: SimTime);

    /// A document copy left the store (evicted or invalidated).
    fn on_remove(&mut self, doc: &DocId);

    /// The next eviction candidate, or `None` if the policy tracks nothing.
    fn victim(&mut self) -> Option<DocId>;

    /// Number of documents currently tracked.
    fn len(&self) -> usize;

    /// True when no documents are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Documents in recency order: a doubly linked list threaded through a slab
/// of slots, plus a [`DocMap`] from document to slot. Moving a document to
/// the back, removing it and reading the front are O(1), and only a
/// document's first insert clones its `DocId`.
#[derive(Debug)]
struct RecencyList {
    index: DocMap<usize>,
    slots: Vec<Slot>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<usize>,
    /// Oldest entry, or [`NIL`].
    head: usize,
    /// Newest entry, or [`NIL`].
    tail: usize,
}

/// The end-of-list link.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    doc: DocId,
    prev: usize,
    next: usize,
}

impl Default for RecencyList {
    fn default() -> Self {
        RecencyList {
            index: DocMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl RecencyList {
    /// Makes `doc` the newest entry, adding it if absent.
    fn push_back(&mut self, doc: &DocId) {
        if let Some(&slot) = self.index.get(doc) {
            self.unlink(slot);
            self.link_back(slot);
            return;
        }
        let entry = Slot {
            doc: doc.clone(),
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.insert(doc.clone(), slot);
        self.link_back(slot);
    }

    /// Makes `doc` the newest entry if present.
    fn move_to_back(&mut self, doc: &DocId) {
        if let Some(&slot) = self.index.get(doc) {
            self.unlink(slot);
            self.link_back(slot);
        }
    }

    fn remove(&mut self, doc: &DocId) {
        if let Some(slot) = self.index.remove(doc) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    fn front(&self) -> Option<&DocId> {
        self.slots.get(self.head).map(|s| &s.doc)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn link_back(&mut self, slot: usize) {
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slots[t].next = slot,
        }
        self.tail = slot;
    }
}

/// Least-recently-used replacement (the paper's Figure 9 configuration).
///
/// # Examples
///
/// ```
/// use cachecloud_storage::{LruPolicy, ReplacementPolicy};
/// use cachecloud_types::{ByteSize, DocId, SimTime, SimDuration};
///
/// let mut p = LruPolicy::new();
/// let t = SimTime::ZERO;
/// p.on_insert(&DocId::from_url("/a"), ByteSize::from_bytes(1), t);
/// p.on_insert(&DocId::from_url("/b"), ByteSize::from_bytes(1), t);
/// p.on_access(&DocId::from_url("/a"), t + SimDuration::from_secs(1));
/// assert_eq!(p.victim(), Some(DocId::from_url("/b")));
/// ```
#[derive(Debug, Default)]
pub struct LruPolicy {
    /// Least recently used first.
    order: RecencyList,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }
    fn on_insert(&mut self, doc: &DocId, _size: ByteSize, _now: SimTime) {
        self.order.push_back(doc);
    }
    fn on_access(&mut self, doc: &DocId, _now: SimTime) {
        self.order.move_to_back(doc);
    }
    fn on_remove(&mut self, doc: &DocId) {
        self.order.remove(doc);
    }
    fn victim(&mut self) -> Option<DocId> {
        self.order.front().cloned()
    }
    fn len(&self) -> usize {
        self.order.len()
    }
}

/// First-in-first-out replacement: recency of *insertion* only.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    /// Earliest (re)inserted first.
    order: RecencyList,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn on_insert(&mut self, doc: &DocId, _size: ByteSize, _now: SimTime) {
        self.order.push_back(doc);
    }
    fn on_access(&mut self, _doc: &DocId, _now: SimTime) {}
    fn on_remove(&mut self, doc: &DocId) {
        self.order.remove(doc);
    }
    fn victim(&mut self) -> Option<DocId> {
        self.order.front().cloned()
    }
    fn len(&self) -> usize {
        self.order.len()
    }
}

/// Least-frequently-used replacement with FIFO tie-break.
#[derive(Debug, Default)]
pub struct LfuPolicy {
    /// doc -> (frequency, insertion sequence).
    state: DocMap<(u64, u64)>,
    /// (frequency, sequence) -> doc, coldest first. Sequences are unique,
    /// so each key names one document.
    order: BTreeMap<(u64, u64), DocId>,
    tick: u64,
}

impl LfuPolicy {
    /// Creates an empty LFU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&mut self, doc: &DocId, reset: bool) {
        self.tick += 1;
        let Some(key) = self.state.get_mut(doc) else {
            // First sight: frequency 1 from an insert or an access alike.
            let key = (1, self.tick);
            self.state.insert(doc.clone(), key);
            self.order.insert(key, doc.clone());
            return;
        };
        let moved = self.order.remove(key).expect("order tracks every state");
        *key = if reset {
            (1, self.tick)
        } else {
            (key.0 + 1, key.1)
        };
        self.order.insert(*key, moved);
    }
}

impl ReplacementPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        "lfu"
    }
    fn on_insert(&mut self, doc: &DocId, _size: ByteSize, _now: SimTime) {
        self.bump(doc, true);
    }
    fn on_access(&mut self, doc: &DocId, _now: SimTime) {
        self.bump(doc, false);
    }
    fn on_remove(&mut self, doc: &DocId) {
        if let Some(key) = self.state.remove(doc) {
            self.order.remove(&key);
        }
    }
    fn victim(&mut self) -> Option<DocId> {
        self.order.first_key_value().map(|(_, d)| d.clone())
    }
    fn len(&self) -> usize {
        self.state.len()
    }
}

/// An `f64` with a total order, for priority keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// GreedyDual-Size replacement (Cao & Irani): victims are the documents with
/// the lowest `H = L + cost/size`, where `L` is the inflation value of the
/// last eviction. Large documents are cheaper to evict per byte, so the
/// policy is size-aware — useful in a cloud whose documents span 128 B to
/// 2 MiB.
#[derive(Debug, Default)]
pub struct GreedyDualSizePolicy {
    /// doc -> ((H value, sequence), size).
    state: DocMap<((TotalF64, u64), ByteSize)>,
    /// (H value, sequence) -> doc, lowest H first. Sequences are unique,
    /// so each key names one document.
    order: BTreeMap<(TotalF64, u64), DocId>,
    inflation: f64,
    tick: u64,
}

impl GreedyDualSizePolicy {
    /// Creates an empty GreedyDual-Size policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn h_value(&self, size: ByteSize) -> f64 {
        // Uniform miss cost of 1, normalized per kilobyte of size.
        self.inflation + 1.0 / (size.as_bytes().max(1) as f64 / 1024.0)
    }

    fn set(&mut self, doc: &DocId, size: ByteSize) {
        self.tick += 1;
        let key = (TotalF64(self.h_value(size)), self.tick);
        match self.state.get_mut(doc) {
            Some(entry) => {
                let moved = self
                    .order
                    .remove(&entry.0)
                    .expect("order tracks every state");
                *entry = (key, size);
                self.order.insert(key, moved);
            }
            None => {
                self.state.insert(doc.clone(), (key, size));
                self.order.insert(key, doc.clone());
            }
        }
    }
}

impl ReplacementPolicy for GreedyDualSizePolicy {
    fn name(&self) -> &'static str {
        "gds"
    }
    fn on_insert(&mut self, doc: &DocId, size: ByteSize, _now: SimTime) {
        self.set(doc, size);
    }
    fn on_access(&mut self, doc: &DocId, _now: SimTime) {
        if let Some(&(_, size)) = self.state.get(doc) {
            self.set(doc, size);
        }
    }
    fn on_remove(&mut self, doc: &DocId) {
        if let Some((key, _)) = self.state.remove(doc) {
            self.order.remove(&key);
        }
    }
    fn victim(&mut self) -> Option<DocId> {
        let ((h, _), d) = self.order.first_key_value()?;
        // Evicting at value H inflates L to H (classic GreedyDual).
        self.inflation = h.0;
        Some(d.clone())
    }
    fn len(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecloud_types::SimDuration;

    fn d(name: &str) -> DocId {
        DocId::from_url(name)
    }
    fn sz(b: u64) -> ByteSize {
        ByteSize::from_bytes(b)
    }
    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new();
        p.on_insert(&d("/a"), sz(1), t(0));
        p.on_insert(&d("/b"), sz(1), t(1));
        p.on_insert(&d("/c"), sz(1), t(2));
        p.on_access(&d("/a"), t(3));
        assert_eq!(p.victim(), Some(d("/b")));
        p.on_remove(&d("/b"));
        assert_eq!(p.victim(), Some(d("/c")));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = FifoPolicy::new();
        p.on_insert(&d("/a"), sz(1), t(0));
        p.on_insert(&d("/b"), sz(1), t(1));
        p.on_access(&d("/a"), t(5));
        assert_eq!(p.victim(), Some(d("/a")));
    }

    #[test]
    fn fifo_reinsert_moves_to_back() {
        let mut p = FifoPolicy::new();
        p.on_insert(&d("/a"), sz(1), t(0));
        p.on_insert(&d("/b"), sz(1), t(1));
        p.on_insert(&d("/a"), sz(1), t(2)); // refreshed copy
        assert_eq!(p.victim(), Some(d("/b")));
    }

    #[test]
    fn lfu_evicts_coldest() {
        let mut p = LfuPolicy::new();
        p.on_insert(&d("/a"), sz(1), t(0));
        p.on_insert(&d("/b"), sz(1), t(1));
        for _ in 0..5 {
            p.on_access(&d("/a"), t(2));
        }
        p.on_access(&d("/b"), t(3));
        assert_eq!(p.victim(), Some(d("/b")));
    }

    #[test]
    fn lfu_ties_break_fifo() {
        let mut p = LfuPolicy::new();
        p.on_insert(&d("/a"), sz(1), t(0));
        p.on_insert(&d("/b"), sz(1), t(1));
        // Equal frequency: older insertion loses.
        assert_eq!(p.victim(), Some(d("/a")));
    }

    #[test]
    fn gds_prefers_evicting_large_documents() {
        let mut p = GreedyDualSizePolicy::new();
        p.on_insert(&d("/small"), sz(512), t(0));
        p.on_insert(&d("/large"), sz(1024 * 1024), t(1));
        assert_eq!(p.victim(), Some(d("/large")));
    }

    #[test]
    fn gds_inflation_lets_new_docs_survive() {
        let mut p = GreedyDualSizePolicy::new();
        p.on_insert(&d("/a"), sz(1024), t(0));
        p.on_insert(&d("/b"), sz(1024), t(1));
        // Evict /a: inflation rises to /a's H.
        let v = p.victim().unwrap();
        p.on_remove(&v);
        // A freshly inserted doc of the same size now has a higher H than
        // the survivor had at insert time, so the survivor goes first.
        p.on_insert(&d("/c"), sz(1024), t(2));
        let survivor = if v == d("/a") { d("/b") } else { d("/a") };
        assert_eq!(p.victim(), Some(survivor));
    }

    #[test]
    fn remove_unknown_is_harmless() {
        let mut lru = LruPolicy::new();
        lru.on_remove(&d("/ghost"));
        let mut lfu = LfuPolicy::new();
        lfu.on_remove(&d("/ghost"));
        let mut gds = GreedyDualSizePolicy::new();
        gds.on_remove(&d("/ghost"));
        let mut fifo = FifoPolicy::new();
        fifo.on_remove(&d("/ghost"));
        assert!(lru.victim().is_none());
        assert!(lfu.victim().is_none());
        assert!(gds.victim().is_none());
        assert!(fifo.victim().is_none());
    }

    #[test]
    fn empty_policies_report_empty() {
        assert!(LruPolicy::new().is_empty());
        assert!(FifoPolicy::new().is_empty());
        assert!(LfuPolicy::new().is_empty());
        assert!(GreedyDualSizePolicy::new().is_empty());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            LruPolicy::new().name(),
            FifoPolicy::new().name(),
            LfuPolicy::new().name(),
            GreedyDualSizePolicy::new().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
