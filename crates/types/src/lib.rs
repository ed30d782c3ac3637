//! Core vocabulary types shared by every crate in the cache-clouds
//! reproduction.
//!
//! This crate deliberately has no dependencies: it defines the
//! newtype identifiers ([`DocId`], [`CacheId`], [`CloudId`], [`RingId`]),
//! virtual time ([`SimTime`], [`SimDuration`]), byte quantities
//! ([`ByteSize`]), beacon-point capabilities ([`Capability`]) and the
//! from-scratch RFC 1321 [`md5`] implementation used by every hashing scheme
//! in the paper.
//!
//! # Examples
//!
//! ```
//! use cachecloud_types::{DocId, SimTime, SimDuration, ByteSize, md5};
//!
//! let doc = DocId::from_url("/sydney/results/100m-final.html");
//! // The paper hashes URLs with MD5 and reduces modulo a generator.
//! let irh = doc.hash_mod(1000);
//! assert!(irh < 1000);
//!
//! let t = SimTime::ZERO + SimDuration::from_minutes(5);
//! assert_eq!(t.as_minutes_f64(), 5.0);
//!
//! let sz = ByteSize::from_kib(12);
//! assert_eq!(sz.as_bytes(), 12 * 1024);
//!
//! let digest = md5::md5(b"hello");
//! assert_eq!(md5::to_hex(&digest), "5d41402abc4b2a76b9719d911017c592");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod capability;
pub mod error;
pub mod ids;
pub mod md5;
pub mod time;

pub use crate::bytes::ByteSize;
pub use crate::capability::Capability;
pub use crate::error::{CacheCloudError, Result};
pub use crate::ids::{CacheId, CloudId, DocHashBuilder, DocHasher, DocId, DocMap, RingId, Version};
pub use crate::time::{SimDuration, SimTime};
