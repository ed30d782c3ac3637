//! The cloud's lookup directory — the state beacon points maintain.
//!
//! "The beacon point of a document maintains the up-to-date lookup
//! information, which includes a list of caches in the cloud that currently
//! hold the document" (paper §2.1). The simulation keeps one logical
//! directory per cloud and *attributes* each operation to the responsible
//! beacon point through the active [`cachecloud_hashing::BeaconAssigner`];
//! sub-range handoffs move the affected records between beacon points, and
//! the simulator charges that transfer as traffic.

use cachecloud_types::{CacheId, DocId, DocMap, Version};

/// Per-document holder lists plus the origin-side version the cloud has
/// seen.
///
/// Each holder list is a `Vec` kept in ascending id order: a cloud has a
/// handful of caches, so a binary search over a short vector beats a hash
/// set, and [`CloudDirectory::holders`] copies the list out as stored,
/// already sorted.
#[derive(Debug, Default)]
pub struct CloudDirectory {
    holders: DocMap<Vec<CacheId>>,
    versions: DocMap<Version>,
}

impl CloudDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `cache` as a holder of `doc`. Returns `true` if it was not
    /// already registered.
    pub fn register(&mut self, doc: &DocId, cache: CacheId) -> bool {
        let Some(list) = self.holders.get_mut(doc) else {
            self.holders.insert(doc.clone(), vec![cache]);
            return true;
        };
        match list.binary_search(&cache) {
            Ok(_) => false,
            Err(at) => {
                list.insert(at, cache);
                true
            }
        }
    }

    /// Unregisters `cache` as a holder of `doc` (after an eviction or
    /// drop). Returns `true` if it was registered.
    pub fn unregister(&mut self, doc: &DocId, cache: CacheId) -> bool {
        let Some(list) = self.holders.get_mut(doc) else {
            return false;
        };
        let Ok(at) = list.binary_search(&cache) else {
            return false;
        };
        list.remove(at);
        if list.is_empty() {
            self.holders.remove(doc);
        }
        true
    }

    /// The caches currently holding `doc`, in ascending id order (the
    /// deterministic order the lookup response lists them in).
    pub fn holders(&self, doc: &DocId) -> Vec<CacheId> {
        self.holders.get(doc).cloned().unwrap_or_default()
    }

    /// Number of copies of `doc` in the cloud.
    pub fn copy_count(&self, doc: &DocId) -> usize {
        self.holders.get(doc).map_or(0, Vec::len)
    }

    /// Whether any copy of `doc` exists in the cloud.
    pub fn is_held(&self, doc: &DocId) -> bool {
        self.holders.contains_key(doc)
    }

    /// Documents with at least one holder.
    pub fn held_documents(&self) -> usize {
        self.holders.len()
    }

    /// Total (document, holder) records — the directory's size, which is
    /// what a sub-range handoff has to move.
    pub fn total_records(&self) -> usize {
        self.holders.values().map(Vec::len).sum()
    }

    /// Iterates over all held documents and their holder counts.
    pub fn iter_held(&self) -> impl Iterator<Item = (&DocId, usize)> {
        self.holders.iter().map(|(d, s)| (d, s.len()))
    }

    /// Records that the cloud has seen `version` of `doc`.
    pub fn note_version(&mut self, doc: &DocId, version: Version) {
        match self.versions.get_mut(doc) {
            Some(v) => *v = (*v).max(version),
            None => {
                self.versions.insert(doc.clone(), version);
            }
        }
    }

    /// The latest version the cloud has seen of `doc`.
    pub fn known_version(&self, doc: &DocId) -> Version {
        self.versions.get(doc).copied().unwrap_or(Version::INITIAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(name: &str) -> DocId {
        DocId::from_url(name)
    }

    #[test]
    fn register_unregister_roundtrip() {
        let mut dir = CloudDirectory::new();
        assert!(dir.register(&d("/a"), CacheId(1)));
        assert!(!dir.register(&d("/a"), CacheId(1)), "idempotent");
        assert!(dir.register(&d("/a"), CacheId(3)));
        assert_eq!(dir.holders(&d("/a")), vec![CacheId(1), CacheId(3)]);
        assert_eq!(dir.copy_count(&d("/a")), 2);
        assert!(dir.unregister(&d("/a"), CacheId(1)));
        assert!(!dir.unregister(&d("/a"), CacheId(1)));
        assert_eq!(dir.copy_count(&d("/a")), 1);
    }

    #[test]
    fn empty_holder_sets_are_dropped() {
        let mut dir = CloudDirectory::new();
        dir.register(&d("/a"), CacheId(0));
        dir.unregister(&d("/a"), CacheId(0));
        assert!(!dir.is_held(&d("/a")));
        assert_eq!(dir.held_documents(), 0);
        assert_eq!(dir.total_records(), 0);
    }

    #[test]
    fn holders_of_unknown_doc_is_empty() {
        let dir = CloudDirectory::new();
        assert!(dir.holders(&d("/ghost")).is_empty());
        assert_eq!(dir.copy_count(&d("/ghost")), 0);
    }

    #[test]
    fn record_counting() {
        let mut dir = CloudDirectory::new();
        dir.register(&d("/a"), CacheId(0));
        dir.register(&d("/a"), CacheId(1));
        dir.register(&d("/b"), CacheId(2));
        assert_eq!(dir.held_documents(), 2);
        assert_eq!(dir.total_records(), 3);
        let held: Vec<usize> = dir.iter_held().map(|(_, n)| n).collect();
        assert_eq!(held.iter().sum::<usize>(), 3);
    }

    #[test]
    fn versions_are_monotone() {
        let mut dir = CloudDirectory::new();
        assert_eq!(dir.known_version(&d("/a")), Version::INITIAL);
        dir.note_version(&d("/a"), Version(3));
        dir.note_version(&d("/a"), Version(1)); // stale notice ignored
        assert_eq!(dir.known_version(&d("/a")), Version(3));
    }
}
