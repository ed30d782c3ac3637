//! The byte-bounded document store of one edge cache.

use cachecloud_types::{ByteSize, CacheCloudError, DocId, DocMap, SimDuration, SimTime, Version};

use crate::policy::ReplacementPolicy;
use crate::residence::ResidenceEstimator;

/// Metadata of a document copy resident in a cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedDocument {
    /// The document's identity.
    pub id: DocId,
    /// Body size.
    pub size: ByteSize,
    /// Version of the cached copy.
    pub version: Version,
    /// When this copy entered the store.
    pub stored_at: SimTime,
    /// When this copy was last validated against (or received from) the
    /// origin — the basis of TTL freshness checks.
    pub validated_at: SimTime,
    /// Last read of this copy.
    pub last_access: SimTime,
    /// Reads served by this copy.
    pub access_count: u64,
}

/// A byte-capacity store of document copies with pluggable replacement.
///
/// Invariants (checked in debug builds and by the property tests):
/// * used bytes never exceed capacity;
/// * the replacement policy tracks exactly the resident documents;
/// * a successful insert leaves the document resident.
///
/// # Examples
///
/// ```
/// use cachecloud_storage::{CacheStore, LruPolicy};
/// use cachecloud_types::{ByteSize, DocId, SimTime, Version};
///
/// let mut s = CacheStore::new(ByteSize::from_kib(1), Box::new(LruPolicy::new()));
/// s.insert(DocId::from_url("/x"), ByteSize::from_bytes(10), Version(0), SimTime::ZERO)?;
/// assert!(s.contains(&DocId::from_url("/x")));
/// assert_eq!(s.used(), ByteSize::from_bytes(10));
/// # Ok::<(), cachecloud_types::CacheCloudError>(())
/// ```
#[derive(Debug)]
pub struct CacheStore {
    capacity: ByteSize,
    used: ByteSize,
    docs: DocMap<CachedDocument>,
    policy: Box<dyn ReplacementPolicy>,
    residence: ResidenceEstimator,
    evictions: u64,
    insertions: u64,
}

impl CacheStore {
    /// Creates an empty store with the given capacity and policy.
    ///
    /// Use [`ByteSize::UNLIMITED`] for the paper's unlimited-disk
    /// experiments.
    pub fn new(capacity: ByteSize, policy: Box<dyn ReplacementPolicy>) -> Self {
        CacheStore {
            capacity,
            used: ByteSize::ZERO,
            docs: DocMap::default(),
            policy,
            residence: ResidenceEstimator::default(),
            evictions: 0,
            insertions: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total successful insertions.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// The replacement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether a current copy of `doc` is resident.
    pub fn contains(&self, doc: &DocId) -> bool {
        self.docs.contains_key(doc)
    }

    /// The resident copy's metadata, without touching recency.
    pub fn peek(&self, doc: &DocId) -> Option<&CachedDocument> {
        self.docs.get(doc)
    }

    /// Reads `doc`, updating recency and counters. Returns the copy's
    /// metadata if resident.
    pub fn access(&mut self, doc: &DocId, now: SimTime) -> Option<&CachedDocument> {
        let entry = self.docs.get_mut(doc)?;
        entry.last_access = now;
        entry.access_count += 1;
        self.policy.on_access(doc, now);
        Some(&*entry)
    }

    /// Inserts (or refreshes) a copy of `doc`, evicting victims as needed.
    /// Returns the evicted documents, oldest victim first.
    ///
    /// Refreshing an already-resident document updates its version and size
    /// in place (an update propagation delivering a new body).
    ///
    /// # Errors
    ///
    /// [`CacheCloudError::DocumentTooLarge`] if `size` exceeds the store's
    /// total capacity; the store is unchanged in that case.
    pub fn insert(
        &mut self,
        doc: DocId,
        size: ByteSize,
        version: Version,
        now: SimTime,
    ) -> Result<Vec<DocId>, CacheCloudError> {
        if size > self.capacity {
            return Err(CacheCloudError::DocumentTooLarge {
                doc,
                size: size.as_bytes(),
                capacity: self.capacity.as_bytes(),
            });
        }
        // Replace an existing copy in place.
        let existing = self.docs.remove(&doc);
        if let Some(old) = &existing {
            self.used -= old.size;
            self.policy.on_remove(&doc);
        }

        let mut evicted = Vec::new();
        while self
            .used
            .checked_add(size)
            .is_none_or(|total| total > self.capacity)
        {
            let victim = self
                .policy
                .victim()
                .expect("store over capacity implies a resident victim");
            debug_assert!(self.docs.contains_key(&victim));
            self.evict(&victim, now);
            evicted.push(victim);
        }

        let stored_at = existing.as_ref().map_or(now, |e| e.stored_at);
        let access_count = existing.as_ref().map_or(0, |e| e.access_count);
        self.docs.insert(
            doc.clone(),
            CachedDocument {
                id: doc.clone(),
                size,
                version,
                stored_at,
                validated_at: now,
                last_access: now,
                access_count,
            },
        );
        self.used += size;
        self.policy.on_insert(&doc, size, now);
        self.insertions += 1;
        debug_assert!(self.used <= self.capacity);
        debug_assert_eq!(self.policy.len(), self.docs.len());
        Ok(evicted)
    }

    /// Removes `doc` (an invalidation without re-fill). Returns the removed
    /// metadata, if it was resident.
    pub fn remove(&mut self, doc: &DocId) -> Option<CachedDocument> {
        let entry = self.docs.remove(doc)?;
        self.used -= entry.size;
        self.policy.on_remove(doc);
        Some(entry)
    }

    /// Bumps the version of a resident copy (an update propagation carrying
    /// the same body size). Returns `false` if the document is not resident.
    pub fn refresh_version(&mut self, doc: &DocId, version: Version) -> bool {
        match self.docs.get_mut(doc) {
            Some(e) => {
                e.version = version;
                true
            }
            None => false,
        }
    }

    /// Marks a resident copy as validated against the origin at `now`,
    /// optionally advancing its version (TTL revalidation). Returns `false`
    /// if the document is not resident.
    pub fn revalidate(&mut self, doc: &DocId, version: Version, now: SimTime) -> bool {
        match self.docs.get_mut(doc) {
            Some(e) => {
                e.version = version;
                e.validated_at = now;
                true
            }
            None => false,
        }
    }

    /// The estimated characteristic residence time of a new copy: the EWMA
    /// of recent eviction ages, or `None` while the store has never evicted
    /// (no observed contention).
    pub fn estimated_residence(&self) -> Option<SimDuration> {
        self.residence.estimate()
    }

    /// Iterates over resident documents in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &CachedDocument> {
        self.docs.values()
    }

    fn evict(&mut self, victim: &DocId, now: SimTime) {
        if let Some(entry) = self.docs.remove(victim) {
            self.used -= entry.size;
            self.policy.on_remove(victim);
            self.residence
                .observe_eviction(now.saturating_since(entry.stored_at));
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FifoPolicy, GreedyDualSizePolicy, LfuPolicy, LruPolicy};
    use cachecloud_types::SimDuration;

    fn d(name: &str) -> DocId {
        DocId::from_url(name)
    }
    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }
    fn lru(capacity: u64) -> CacheStore {
        CacheStore::new(ByteSize::from_bytes(capacity), Box::new(LruPolicy::new()))
    }

    #[test]
    fn insert_and_access() {
        let mut s = lru(100);
        s.insert(d("/a"), ByteSize::from_bytes(30), Version(1), t(0))
            .unwrap();
        assert!(s.contains(&d("/a")));
        assert_eq!(s.used(), ByteSize::from_bytes(30));
        let meta = s.access(&d("/a"), t(5)).unwrap();
        assert_eq!(meta.access_count, 1);
        assert_eq!(meta.last_access, t(5));
        assert!(s.access(&d("/missing"), t(5)).is_none());
    }

    #[test]
    fn eviction_respects_lru_order() {
        let mut s = lru(100);
        for (i, name) in ["/a", "/b", "/c"].iter().enumerate() {
            s.insert(d(name), ByteSize::from_bytes(30), Version(0), t(i as u64))
                .unwrap();
        }
        s.access(&d("/a"), t(10));
        let evicted = s
            .insert(d("/d"), ByteSize::from_bytes(30), Version(0), t(11))
            .unwrap();
        assert_eq!(evicted, vec![d("/b")]);
        assert!(s.contains(&d("/a")));
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn large_insert_evicts_multiple() {
        let mut s = lru(100);
        for name in ["/a", "/b", "/c"] {
            s.insert(d(name), ByteSize::from_bytes(30), Version(0), t(0))
                .unwrap();
        }
        let evicted = s
            .insert(d("/big"), ByteSize::from_bytes(90), Version(0), t(1))
            .unwrap();
        assert_eq!(evicted.len(), 3);
        assert_eq!(s.len(), 1);
        assert!(s.used() <= s.capacity());
    }

    #[test]
    fn oversized_document_is_rejected_without_change() {
        let mut s = lru(100);
        s.insert(d("/a"), ByteSize::from_bytes(50), Version(0), t(0))
            .unwrap();
        let err = s
            .insert(d("/huge"), ByteSize::from_bytes(101), Version(0), t(1))
            .unwrap_err();
        assert!(matches!(err, CacheCloudError::DocumentTooLarge { .. }));
        assert!(s.contains(&d("/a")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut s = lru(100);
        s.insert(d("/a"), ByteSize::from_bytes(40), Version(1), t(0))
            .unwrap();
        s.access(&d("/a"), t(1));
        let evicted = s
            .insert(d("/a"), ByteSize::from_bytes(60), Version(2), t(2))
            .unwrap();
        assert!(evicted.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.used(), ByteSize::from_bytes(60));
        let meta = s.peek(&d("/a")).unwrap();
        assert_eq!(meta.version, Version(2));
        assert_eq!(meta.stored_at, t(0), "original residency is preserved");
        assert_eq!(meta.access_count, 1);
    }

    #[test]
    fn remove_and_refresh_version() {
        let mut s = lru(100);
        s.insert(d("/a"), ByteSize::from_bytes(10), Version(1), t(0))
            .unwrap();
        assert!(s.refresh_version(&d("/a"), Version(2)));
        assert_eq!(s.peek(&d("/a")).unwrap().version, Version(2));
        let removed = s.remove(&d("/a")).unwrap();
        assert_eq!(removed.version, Version(2));
        assert!(!s.refresh_version(&d("/a"), Version(3)));
        assert!(s.remove(&d("/a")).is_none());
        assert_eq!(s.used(), ByteSize::ZERO);
    }

    #[test]
    fn residence_estimator_sees_eviction_ages() {
        let mut s = lru(60);
        assert!(s.estimated_residence().is_none());
        s.insert(d("/a"), ByteSize::from_bytes(30), Version(0), t(0))
            .unwrap();
        s.insert(d("/b"), ByteSize::from_bytes(30), Version(0), t(0))
            .unwrap();
        // Evicts /a (resident 100 s).
        s.insert(d("/c"), ByteSize::from_bytes(30), Version(0), t(100))
            .unwrap();
        let est = s.estimated_residence().unwrap();
        assert_eq!(est, SimDuration::from_secs(100));
    }

    #[test]
    fn unlimited_store_never_evicts() {
        let mut s = CacheStore::new(ByteSize::UNLIMITED, Box::new(LruPolicy::new()));
        for i in 0..1000 {
            let ev = s
                .insert(
                    d(&format!("/doc/{i}")),
                    ByteSize::from_mib(1),
                    Version(0),
                    t(i),
                )
                .unwrap();
            assert!(ev.is_empty());
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn works_with_every_policy() {
        let policies: Vec<Box<dyn ReplacementPolicy>> = vec![
            Box::new(LruPolicy::new()),
            Box::new(FifoPolicy::new()),
            Box::new(LfuPolicy::new()),
            Box::new(GreedyDualSizePolicy::new()),
        ];
        for p in policies {
            let name = p.name();
            let mut s = CacheStore::new(ByteSize::from_bytes(100), p);
            for i in 0..20 {
                s.insert(
                    d(&format!("/{i}")),
                    ByteSize::from_bytes(10 + i % 7),
                    Version(0),
                    t(i),
                )
                .unwrap();
            }
            assert!(s.used() <= s.capacity(), "policy {name} overflowed");
            assert!(!s.is_empty(), "policy {name} emptied the store");
            assert_eq!(s.policy_name(), name);
        }
    }

    #[test]
    fn exact_fit_does_not_evict() {
        let mut s = lru(100);
        s.insert(d("/a"), ByteSize::from_bytes(100), Version(0), t(0))
            .unwrap();
        assert_eq!(s.used(), s.capacity());
        assert_eq!(s.evictions(), 0);
    }
}
