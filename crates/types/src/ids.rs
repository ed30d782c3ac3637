//! Newtype identifiers for documents, caches, clouds and beacon rings.
//!
//! Using distinct types for each identifier keeps the protocols honest: a
//! beacon-ring index can never be confused with a cache index, and a document
//! is always addressed by its URL-derived [`DocId`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::md5;

/// Identifier of a document (a dynamic web page) — its URL plus the cached
/// MD5 digest of that URL.
///
/// Equality and ordering are by URL. The digest is computed once at
/// construction and reused by every hash reduction, mirroring how an edge
/// cache would memoize the digest in its metadata record. [`Hash`] writes
/// only that digest, so hashing a `DocId` never reads the URL; equality
/// checks a shared allocation first, then the digests, and compares URLs
/// only when both digests match. Clones are cheap (the URL is
/// reference-counted), which matters because the simulator clones document
/// identifiers on every request event. Key maps by `DocId` with [`DocMap`].
///
/// # Examples
///
/// ```
/// use cachecloud_types::DocId;
///
/// let d = DocId::from_url("/scores/final.html");
/// assert_eq!(d.url(), "/scores/final.html");
/// assert!(d.hash_mod(10) < 10);
/// // Deterministic: the same URL always reduces identically.
/// assert_eq!(d.hash_mod(977), DocId::from_url("/scores/final.html").hash_mod(977));
/// ```
#[derive(Debug, Clone)]
pub struct DocId {
    url: Arc<str>,
    digest: u64,
}

impl DocId {
    /// Creates a document identifier from a URL.
    pub fn from_url(url: impl AsRef<str>) -> Self {
        let url: Arc<str> = Arc::from(url.as_ref());
        let digest = md5::digest_u64(&md5::md5(url.as_bytes()));
        DocId { url, digest }
    }

    /// The document's URL.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// The memoized 64-bit MD5-derived value of the URL.
    pub fn hash_u64(&self) -> u64 {
        self.digest
    }

    /// `md5(url) mod modulus` — the reduction used to pick beacon rings and
    /// intra-ring hash values.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn hash_mod(&self, modulus: u64) -> u64 {
        assert!(modulus > 0, "modulus must be positive");
        self.hash_u64() % modulus
    }
}

impl PartialEq for DocId {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.url, &other.url) || (self.digest == other.digest && self.url == other.url)
    }
}
impl Eq for DocId {}
impl PartialOrd for DocId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DocId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.url.cmp(&other.url)
    }
}
impl Hash for DocId {
    /// Writes the memoized digest only: equal URLs have equal digests, so
    /// this agrees with `Eq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}
impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.url)
    }
}
impl From<String> for DocId {
    fn from(url: String) -> Self {
        DocId::from_url(url)
    }
}
impl From<&str> for DocId {
    fn from(url: &str) -> Self {
        DocId::from_url(url)
    }
}
impl From<DocId> for String {
    fn from(id: DocId) -> Self {
        id.url.as_ref().to_owned()
    }
}

/// A map keyed by [`DocId`], hashed with [`DocHasher`]: a lookup costs one
/// xor and one multiply of the memoized digest, never a pass over the URL.
///
/// # Examples
///
/// ```
/// use cachecloud_types::{DocId, DocMap};
///
/// let mut m: DocMap<u32> = DocMap::default();
/// m.insert(DocId::from_url("/a"), 1);
/// assert_eq!(m.get(&DocId::from_url("/a")), Some(&1));
/// ```
pub type DocMap<V> = HashMap<DocId, V, DocHashBuilder>;

/// Builds [`DocHasher`]s seeded with this process's random key.
///
/// The digest is MD5 of a URL, and peers supply URLs, so a fixed mixing
/// function would let anyone grind URLs that share a bucket. Like std's
/// `RandomState`, the key makes bucket placement unpredictable from outside
/// the process.
#[derive(Debug, Clone, Copy)]
pub struct DocHashBuilder {
    key: u64,
}

impl Default for DocHashBuilder {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| RandomState::new().hash_one(0x00C0_FFEE_u64));
        DocHashBuilder { key }
    }
}

impl BuildHasher for DocHashBuilder {
    type Hasher = DocHasher;

    fn build_hasher(&self) -> DocHasher {
        DocHasher { state: self.key }
    }
}

/// The hasher behind [`DocMap`]: each 64-bit word is xored into the state
/// and mixed by one 64×64→128-bit multiply whose halves are folded
/// together, so every input bit reaches the low (bucket) and high (tag)
/// bits. A [`DocId`] writes exactly one word, its digest.
#[derive(Debug, Clone, Copy)]
pub struct DocHasher {
    state: u64,
}

impl DocHasher {
    /// An odd multiplier with no simple bit pattern (the golden ratio).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for DocHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(Self::MUL);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

macro_rules! index_id {
    ($(#[$meta:meta])* $name:ident, $label:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub usize);

        impl $name {
            /// The raw index value.
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i)
            }
        }
    };
}

index_id!(
    /// Index of an edge cache within the whole edge network.
    ///
    /// ```
    /// use cachecloud_types::CacheId;
    /// assert_eq!(CacheId(3).to_string(), "cache-3");
    /// ```
    CacheId,
    "cache-"
);
index_id!(
    /// Index of a cache cloud within the edge network.
    ///
    /// ```
    /// use cachecloud_types::CloudId;
    /// assert_eq!(CloudId(0).to_string(), "cloud-0");
    /// ```
    CloudId,
    "cloud-"
);
index_id!(
    /// Index of a beacon ring within a cache cloud.
    ///
    /// ```
    /// use cachecloud_types::RingId;
    /// assert_eq!(RingId(2).to_string(), "ring-2");
    /// ```
    RingId,
    "ring-"
);

/// Monotonically increasing version number of a dynamic document.
///
/// Every origin-side update bumps the version; caches compare versions to
/// detect staleness.
///
/// # Examples
///
/// ```
/// use cachecloud_types::Version;
///
/// let v = Version::INITIAL;
/// assert!(v.next() > v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version a document has when first published.
    pub const INITIAL: Version = Version(0);

    /// The version after one more update.
    #[must_use]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn doc_id_equality_is_by_url() {
        let a = DocId::from_url("/a");
        let b = DocId::from_url(String::from("/a"));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn doc_ids_from_separate_allocations_agree_under_doc_hasher() {
        let owned = String::from("/sydney/results/100m-final.html");
        let a = DocId::from_url(&owned);
        let b = DocId::from_url(owned.clone());
        assert!(!Arc::ptr_eq(&a.url, &b.url), "two allocations");
        assert_eq!(a, b);
        let build = DocHashBuilder::default();
        assert_eq!(build.hash_one(&a), build.hash_one(&b));
        let mut map: DocMap<u32> = DocMap::default();
        map.insert(a.clone(), 7);
        assert_eq!(map.get(&b), Some(&7));

        let c = DocId::from_url("/sydney/results/200m-final.html");
        assert_ne!(a, c);
        assert_ne!(build.hash_one(&a), build.hash_one(&c));
        assert_eq!(map.get(&c), None);
    }

    #[test]
    fn doc_ids_with_equal_digests_still_compare_urls() {
        // A forged digest collision must not make two URLs equal.
        let a = DocId::from_url("/a");
        let forged = DocId {
            url: Arc::from("/b"),
            digest: a.digest,
        };
        assert_ne!(a, forged);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn doc_hasher_mixes_every_word_bit() {
        // Digests differing in one bit land in different low bits, so
        // grinding URLs for a shared digest suffix does not share buckets.
        for key in [0, 0x0123_4567_89AB_CDEF, u64::MAX] {
            let hash = |word: u64| {
                let mut h = DocHasher { state: key };
                h.write_u64(word);
                h.finish()
            };
            for bit in 0..64 {
                assert_ne!(hash(0) & 0xFFFF, hash(1 << bit) & 0xFFFF, "bit {bit}");
            }
        }
    }

    #[test]
    fn doc_id_hash_is_stable_and_memoized() {
        let d = DocId::from_url("/x/y/z");
        let h1 = d.hash_u64();
        let h2 = d.hash_u64();
        assert_eq!(h1, h2);
        assert_eq!(h1, DocId::from_url("/x/y/z").hash_u64());
    }

    #[test]
    fn doc_id_different_urls_differ() {
        // Not guaranteed in general, but astronomically likely; acts as a
        // smoke test that we hash the URL and not e.g. the pointer.
        assert_ne!(
            DocId::from_url("/a").hash_u64(),
            DocId::from_url("/b").hash_u64()
        );
    }

    #[test]
    fn doc_id_ordering_is_lexicographic() {
        let mut v = [DocId::from_url("/b"), DocId::from_url("/a")];
        v.sort();
        assert_eq!(v[0].url(), "/a");
    }

    #[test]
    fn doc_id_string_roundtrip() {
        let d = DocId::from_url("/serde");
        let s: String = d.clone().into();
        let back = DocId::from(s);
        assert_eq!(back, d);
        assert_eq!(back.hash_u64(), d.hash_u64());
    }

    #[test]
    fn doc_id_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DocId>();
    }

    #[test]
    fn index_ids_display_and_convert() {
        assert_eq!(CacheId::from(7).index(), 7);
        assert_eq!(CloudId(1).to_string(), "cloud-1");
        assert_eq!(RingId(9).to_string(), "ring-9");
        assert!(CacheId(1) < CacheId(2));
    }

    #[test]
    fn version_progression() {
        let v0 = Version::INITIAL;
        let v1 = v0.next();
        let v2 = v1.next();
        assert!(v0 < v1 && v1 < v2);
        assert_eq!(v2, Version(2));
        assert_eq!(v2.to_string(), "v2");
    }
}
