//! The origin server: authoritative versions and update-rate monitoring.

use cachecloud_placement::RateMonitor;
use cachecloud_types::{DocId, DocMap, SimDuration, SimTime, Version};

/// The origin server of the dynamic documents.
///
/// Holds the authoritative version of every document, bumps it on each
/// update-trace entry, and monitors per-document update rates (the CMC
/// component of the utility function consumes these; the origin piggybacks
/// the current rate on update notices and document transfers, so the caches'
/// view is as fresh as their last contact).
#[derive(Debug)]
pub struct OriginServer {
    versions: DocMap<Version>,
    update_monitor: RateMonitor,
    updates: u64,
}

impl OriginServer {
    /// Creates an origin with the given update-rate monitor half-life.
    pub fn new(monitor_half_life: SimDuration) -> Self {
        OriginServer {
            versions: DocMap::default(),
            update_monitor: RateMonitor::new(monitor_half_life),
            updates: 0,
        }
    }

    /// Applies one update-trace entry: bumps the version and records the
    /// event. Returns the new version.
    pub fn apply_update(&mut self, doc: &DocId, now: SimTime) -> Version {
        self.updates += 1;
        self.update_monitor.record(doc, now);
        match self.versions.get_mut(doc) {
            Some(v) => {
                *v = v.next();
                *v
            }
            None => {
                let v = Version::INITIAL.next();
                self.versions.insert(doc.clone(), v);
                v
            }
        }
    }

    /// The authoritative version of `doc`.
    pub fn version(&self, doc: &DocId) -> Version {
        self.versions.get(doc).copied().unwrap_or(Version::INITIAL)
    }

    /// The document's current update rate, events/minute.
    pub fn update_rate(&self, doc: &DocId, now: SimTime) -> f64 {
        self.update_monitor.rate_per_minute(doc, now)
    }

    /// Updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn versions_advance_per_update() {
        let mut o = OriginServer::new(SimDuration::from_minutes(10));
        let d = DocId::from_url("/a");
        assert_eq!(o.version(&d), Version::INITIAL);
        assert_eq!(o.apply_update(&d, t(1)), Version(1));
        assert_eq!(o.apply_update(&d, t(2)), Version(2));
        assert_eq!(o.version(&d), Version(2));
        assert_eq!(o.updates(), 2);
    }

    #[test]
    fn update_rate_reflects_stream() {
        let mut o = OriginServer::new(SimDuration::from_minutes(5));
        let d = DocId::from_url("/scoreboard");
        let mut now = SimTime::ZERO;
        // 6 updates/minute for 30 minutes.
        for _ in 0..180 {
            now += SimDuration::from_secs(10);
            o.apply_update(&d, now);
        }
        let r = o.update_rate(&d, now);
        assert!((r - 6.0).abs() < 1.0, "rate {r}");
        assert_eq!(o.update_rate(&DocId::from_url("/quiet"), now), 0.0);
    }
}
