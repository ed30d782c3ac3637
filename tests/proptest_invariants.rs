//! Property-based tests on the core data structures and invariants. Each
//! property runs over seeded cases (256 unless stated); a failure names
//! its seed.

use cache_clouds_repro::cluster::wire::Bytes;
use cache_clouds_repro::cluster::{Request, Response};
use cache_clouds_repro::hashing::subrange::{determine_subranges, PointLoad};
use cache_clouds_repro::hashing::{
    BeaconAssigner, ConsistentHashing, DynamicHashing, RingLayout, StaticHashing, SubRange,
};
use cache_clouds_repro::sim::{check_seeds, SimRng};
use cache_clouds_repro::storage::{CacheStore, LruPolicy};
use cache_clouds_repro::types::md5::{md5, Md5};
use cache_clouds_repro::types::{ByteSize, CacheId, Capability, DocId, SimTime, Version};

const CASES: u64 = 256;

/// `len` values from `draw`.
fn vec_of<T>(rng: &mut SimRng, len: usize, mut draw: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
    (0..len).map(|_| draw(rng)).collect()
}

/// `lo..hi` values from `draw` (the length itself is drawn).
fn some_of<T>(rng: &mut SimRng, lo: u64, hi: u64, draw: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
    let len = rng.range_u64(lo, hi) as usize;
    vec_of(rng, len, draw)
}

/// A string of `lo..=hi` characters drawn from `alphabet`.
fn string_of(rng: &mut SimRng, alphabet: &[u8], lo: u64, hi: u64) -> String {
    let len = rng.range_u64(lo, hi + 1) as usize;
    vec_of(rng, len, |r| {
        char::from(alphabet[r.next_usize(alphabet.len())])
    })
    .into_iter()
    .collect()
}

/// Sub-range determination always returns a partition of the IrH
/// domain, regardless of load shape.
#[test]
fn subranges_always_partition() {
    check_seeds(CASES, |rng| {
        let loads = vec_of(rng, 20, |r| r.range_f64(0.0, 1000.0));
        let split = rng.range_u64(1, 19) as usize;
        let generator = loads.len() as u64;
        let points = vec![
            PointLoad {
                capability: Capability::UNIT,
                range: SubRange::new(0, split as u64 - 1),
                total_load: loads[..split].iter().sum(),
                per_irh: Some(loads[..split].to_vec()),
            },
            PointLoad {
                capability: Capability::UNIT,
                range: SubRange::new(split as u64, generator - 1),
                total_load: loads[split..].iter().sum(),
                per_irh: Some(loads[split..].to_vec()),
            },
        ];
        let (ranges, _) = determine_subranges(&points, generator);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].min(), 0);
        assert_eq!(ranges[1].max(), generator - 1);
        assert_eq!(ranges[0].max() + 1, ranges[1].min());
    });
}

/// Rebalancing never increases the measured imbalance when the load
/// pattern is stable (replaying identical loads after the cycle).
#[test]
fn rebalancing_never_hurts_stable_loads() {
    check_seeds(CASES, |rng| {
        let loads = vec_of(rng, 50, |r| r.range_f64(0.0, 100.0));
        let generator = loads.len() as u64;
        let split = generator / 2;
        let points = vec![
            PointLoad {
                capability: Capability::UNIT,
                range: SubRange::new(0, split - 1),
                total_load: loads[..split as usize].iter().sum(),
                per_irh: Some(loads[..split as usize].to_vec()),
            },
            PointLoad {
                capability: Capability::UNIT,
                range: SubRange::new(split, generator - 1),
                total_load: loads[split as usize..].iter().sum(),
                per_irh: Some(loads[split as usize..].to_vec()),
            },
        ];
        let imbalance = |a: f64, b: f64| (a - b).abs();
        let before = imbalance(points[0].total_load, points[1].total_load);
        let (ranges, _) = determine_subranges(&points, generator);
        let l0: f64 = (ranges[0].min()..=ranges[0].max())
            .map(|v| loads[v as usize])
            .sum();
        let l1: f64 = (ranges[1].min()..=ranges[1].max())
            .map(|v| loads[v as usize])
            .sum();
        assert!(
            imbalance(l0, l1) <= before + 1e-9,
            "rebalance worsened {} -> {}",
            before,
            imbalance(l0, l1)
        );
    });
}

/// Every assigner maps every document to a member of the cloud,
/// deterministically.
#[test]
fn assigners_are_total_and_deterministic() {
    check_seeds(CASES, |rng| {
        let urls = some_of(rng, 1, 50, |r| {
            string_of(r, b"abcdefghijklmnopqrstuvwxyz0123456789/", 1, 30)
        });
        let ids: Vec<CacheId> = (0..6).map(CacheId).collect();
        let caps: Vec<(CacheId, Capability)> = ids.iter().map(|&c| (c, Capability::UNIT)).collect();
        let assigners: Vec<Box<dyn BeaconAssigner>> = vec![
            Box::new(StaticHashing::new(ids.clone()).unwrap()),
            Box::new(ConsistentHashing::new(ids.clone(), 10).unwrap()),
            Box::new(DynamicHashing::new(&caps, RingLayout::rings(3), 100, true).unwrap()),
        ];
        for a in &assigners {
            for url in &urls {
                let doc = DocId::from_url(url.clone());
                let b1 = a.beacon_for(&doc);
                let b2 = a.beacon_for(&doc);
                assert_eq!(b1, b2);
                assert!(b1.index() < 6);
            }
        }
    });
}

/// The store never exceeds capacity and tracks used bytes exactly.
#[test]
fn store_capacity_invariant() {
    check_seeds(CASES, |rng| {
        let ops = some_of(rng, 1, 120, |r| (r.range_u64(0, 40), r.range_u64(1, 400)));
        let capacity = rng.range_u64(400, 2000);
        let mut store = CacheStore::new(ByteSize::from_bytes(capacity), Box::new(LruPolicy::new()));
        let mut t = 0u64;
        for (doc, size) in ops {
            t += 1;
            let id = DocId::from_url(format!("/d/{doc}"));
            let _ = store.insert(
                id,
                ByteSize::from_bytes(size.min(capacity)),
                Version(t),
                SimTime::from_micros(t),
            );
            assert!(store.used() <= store.capacity());
            let sum: u64 = store.iter().map(|d| d.size.as_bytes()).sum();
            assert_eq!(sum, store.used().as_bytes());
        }
    });
}

/// Incremental MD5 equals one-shot MD5 for arbitrary chunkings.
#[test]
fn md5_incremental_equals_oneshot() {
    check_seeds(CASES, |rng| {
        let data = some_of(rng, 0, 500, |r| r.next_u64() as u8);
        let cuts = some_of(rng, 0, 5, |r| r.next_usize(500));
        let mut hasher = Md5::new();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for c in cuts {
            hasher.update(&data[prev..c]);
            prev = c;
        }
        hasher.update(&data[prev..]);
        assert_eq!(hasher.finalize(), md5(&data));
    });
}

/// Wire messages round-trip for arbitrary contents.
#[test]
fn wire_requests_roundtrip() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    check_seeds(CASES, |rng| {
        let url = string_of(rng, &printable, 0, 64);
        let holder = rng.next_u64() as u32;
        let version = rng.next_u64();
        let body = some_of(rng, 0, 256, |r| r.next_u64() as u8);
        let reqs = vec![
            Request::Lookup { url: url.clone() },
            Request::Register {
                url: url.clone(),
                holder,
                table_version: version,
            },
            Request::UnregisterBatch {
                urls: vec![url.clone(), String::new()],
                holder,
                table_version: version,
            },
            Request::Fill {
                url: url.clone(),
                requester: holder,
                table_version: version,
            },
            Request::Put {
                url,
                version,
                body: Bytes::from(body.clone()),
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(req.encode()).unwrap(), req);
        }
        let resp = Response::Document {
            version,
            body: Bytes::from(body),
        };
        assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
    });
}

/// Zipf PMF is a decreasing probability distribution for any θ.
#[test]
fn zipf_pmf_is_valid() {
    check_seeds(CASES, |rng| {
        let n = rng.range_u64(1, 500) as usize;
        let theta = rng.range_f64(0.0, 2.0);
        let z = cache_clouds_repro::workload::ZipfSampler::new(n, theta);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-6);
        for r in 1..n {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    });
}

/// A naive reference model of an LRU byte-cache: a recency-ordered vector.
#[derive(Default)]
struct ModelLru {
    /// Most recent last: (doc index, size).
    order: Vec<(u32, u64)>,
    capacity: u64,
}

impl ModelLru {
    fn used(&self) -> u64 {
        self.order.iter().map(|&(_, s)| s).sum()
    }
    fn touch(&mut self, doc: u32) -> bool {
        if let Some(pos) = self.order.iter().position(|&(d, _)| d == doc) {
            let e = self.order.remove(pos);
            self.order.push(e);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, doc: u32, size: u64) -> Vec<u32> {
        if size > self.capacity {
            return Vec::new(); // rejected; model unchanged
        }
        if let Some(pos) = self.order.iter().position(|&(d, _)| d == doc) {
            self.order.remove(pos);
        }
        let mut evicted = Vec::new();
        while self.used() + size > self.capacity {
            let (victim, _) = self.order.remove(0);
            evicted.push(victim);
        }
        self.order.push((doc, size));
        evicted
    }
}

/// The real `CacheStore` + `LruPolicy` agrees with a naive
/// recency-vector model on every operation outcome.
#[test]
fn store_matches_reference_lru_model() {
    check_seeds(CASES, |rng| {
        let ops = some_of(rng, 1, 200, |r| {
            (
                r.chance(0.5),
                r.range_u64(0, 25) as u32,
                r.range_u64(1, 300),
            )
        });
        let capacity = rng.range_u64(500, 1500);
        let mut real = CacheStore::new(ByteSize::from_bytes(capacity), Box::new(LruPolicy::new()));
        let mut model = ModelLru {
            capacity,
            ..Default::default()
        };
        let mut t = 0u64;
        for (is_access, doc, size) in ops {
            t += 1;
            let id = DocId::from_url(format!("/m/{doc}"));
            if is_access {
                let real_hit = real.access(&id, SimTime::from_micros(t)).is_some();
                let model_hit = model.touch(doc);
                assert_eq!(real_hit, model_hit, "access divergence on doc {}", doc);
            } else {
                let real_evicted = real
                    .insert(
                        id,
                        ByteSize::from_bytes(size),
                        Version(t),
                        SimTime::from_micros(t),
                    )
                    .map(|ev| {
                        ev.into_iter()
                            .map(|d| d.url().trim_start_matches("/m/").parse::<u32>().unwrap())
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default();
                let model_evicted = model.insert(doc, size);
                assert_eq!(real_evicted, model_evicted, "eviction divergence");
            }
            assert_eq!(real.used().as_bytes(), model.used());
            assert_eq!(real.len(), model.order.len());
        }
    });
}

/// Dynamic hashing keeps every document within its ring across
/// arbitrary load histories and rebalances (64 cases).
#[test]
fn dynamic_hashing_ring_stability() {
    check_seeds(64, |rng| {
        let weights = vec_of(rng, 30, |r| r.range_f64(0.0, 50.0));
        let cycles = rng.range_u64(1, 4);
        let caps: Vec<(CacheId, Capability)> =
            (0..6).map(|i| (CacheId(i), Capability::UNIT)).collect();
        let mut dh = DynamicHashing::new(&caps, RingLayout::rings(3), 100, true).unwrap();
        let docs: Vec<DocId> = (0..30)
            .map(|i| DocId::from_url(format!("/p/{i}")))
            .collect();
        let rings: Vec<_> = docs.iter().map(|d| dh.ring_of(d)).collect();
        for _ in 0..cycles {
            for (d, w) in docs.iter().zip(&weights) {
                dh.record_load(d, *w);
            }
            dh.end_cycle();
            for (d, r) in docs.iter().zip(&rings) {
                assert_eq!(dh.ring_of(d), *r);
                assert!(dh.ring_members(*r).contains(&dh.beacon_for(d)));
            }
        }
    });
}
