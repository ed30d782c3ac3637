//! Per-document rate monitoring.
//!
//! The utility-based scheme evaluates the utility function "using the
//! request and update patterns of the document collected through continued
//! monitoring in the recent time duration" (paper §3.1). [`RateMonitor`]
//! implements that monitoring with exponentially decayed counters: cheap,
//! O(1) per event, and naturally weighted toward the recent past.

use cachecloud_types::{DocId, DocMap, SimDuration, SimTime};

/// An exponentially decayed event-rate estimator over many documents.
///
/// Each recorded event adds 1 to the document's decayed counter; a counter
/// fed by a Poisson process of rate `r` converges to `r / λ`, so the rate
/// estimate is `counter × λ` (with `λ = ln 2 / half_life`). Documents with
/// no recorded events report rate 0.
///
/// # Examples
///
/// ```
/// use cachecloud_placement::RateMonitor;
/// use cachecloud_types::{DocId, SimDuration, SimTime};
///
/// let mut m = RateMonitor::new(SimDuration::from_minutes(10));
/// let d = DocId::from_url("/hot");
/// let mut t = SimTime::ZERO;
/// for _ in 0..600 {
///     t += SimDuration::from_secs(6); // 10 events/minute
///     m.record(&d, t);
/// }
/// let r = m.rate_per_minute(&d, t);
/// assert!((r - 10.0).abs() < 2.0, "rate {r}");
/// ```
#[derive(Debug, Clone)]
pub struct RateMonitor {
    /// Decay constant per microsecond.
    lambda_per_us: f64,
    /// doc -> (decayed counter, last update time).
    counters: DocMap<(f64, SimTime)>,
}

impl RateMonitor {
    /// Creates a monitor whose memory halves every `half_life`.
    ///
    /// # Panics
    ///
    /// Panics if `half_life` is zero.
    pub fn new(half_life: SimDuration) -> Self {
        assert!(!half_life.is_zero(), "half-life must be non-zero");
        RateMonitor {
            lambda_per_us: std::f64::consts::LN_2 / half_life.as_micros() as f64,
            counters: DocMap::default(),
        }
    }

    /// Records one event for `doc` at time `now`.
    pub fn record(&mut self, doc: &DocId, now: SimTime) {
        match self.counters.get_mut(doc) {
            Some((counter, last)) => {
                let dt = now.saturating_since(*last).as_micros() as f64;
                *counter = *counter * (-self.lambda_per_us * dt).exp() + 1.0;
                *last = now;
            }
            None => {
                self.counters.insert(doc.clone(), (1.0, now));
            }
        }
    }

    /// The estimated event rate of `doc` in events per minute at `now`.
    pub fn rate_per_minute(&self, doc: &DocId, now: SimTime) -> f64 {
        match self.counters.get(doc) {
            None => 0.0,
            Some(&(counter, last)) => {
                let dt = now.saturating_since(last).as_micros() as f64;
                let decayed = counter * (-self.lambda_per_us * dt).exp();
                decayed * self.lambda_per_us * 60e6
            }
        }
    }

    /// Mean rate over a set of documents (0 for an empty set). This backs
    /// the AFC component's "other documents stored in the cache" baseline.
    pub fn mean_rate_per_minute<'a>(
        &self,
        docs: impl IntoIterator<Item = &'a DocId>,
        now: SimTime,
    ) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for d in docs {
            sum += self.rate_per_minute(d, now);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Number of documents with live counters.
    pub fn tracked(&self) -> usize {
        self.counters.len()
    }

    /// Drops counters whose current value decayed below `min_value`,
    /// bounding memory on long runs.
    pub fn prune(&mut self, now: SimTime, min_value: f64) {
        let lambda = self.lambda_per_us;
        self.counters.retain(|_, (counter, last)| {
            let dt = now.saturating_since(*last).as_micros() as f64;
            *counter * (-lambda * dt).exp() >= min_value
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(name: &str) -> DocId {
        DocId::from_url(name)
    }

    #[test]
    fn unknown_document_has_zero_rate() {
        let m = RateMonitor::new(SimDuration::from_minutes(5));
        assert_eq!(m.rate_per_minute(&d("/x"), SimTime::ZERO), 0.0);
    }

    #[test]
    fn steady_stream_converges_to_true_rate() {
        let mut m = RateMonitor::new(SimDuration::from_minutes(5));
        let doc = d("/a");
        let mut t = SimTime::ZERO;
        // 30 events/minute for 60 minutes.
        for _ in 0..1800 {
            t += SimDuration::from_secs(2);
            m.record(&doc, t);
        }
        let r = m.rate_per_minute(&doc, t);
        assert!((r - 30.0).abs() < 3.0, "rate {r}");
    }

    #[test]
    fn rate_decays_after_events_stop() {
        let mut m = RateMonitor::new(SimDuration::from_minutes(5));
        let doc = d("/a");
        let mut t = SimTime::ZERO;
        for _ in 0..600 {
            t += SimDuration::from_secs(2);
            m.record(&doc, t);
        }
        let busy = m.rate_per_minute(&doc, t);
        let later = t + SimDuration::from_minutes(5);
        let idle = m.rate_per_minute(&doc, later);
        assert!((idle - busy / 2.0).abs() < busy * 0.05, "half-life decay");
    }

    #[test]
    fn hotter_documents_report_higher_rates() {
        let mut m = RateMonitor::new(SimDuration::from_minutes(5));
        let hot = d("/hot");
        let cold = d("/cold");
        let mut t = SimTime::ZERO;
        for i in 0..1000 {
            t += SimDuration::from_secs(1);
            m.record(&hot, t);
            if i % 20 == 0 {
                m.record(&cold, t);
            }
        }
        assert!(m.rate_per_minute(&hot, t) > 10.0 * m.rate_per_minute(&cold, t));
    }

    #[test]
    fn mean_rate_over_set() {
        let mut m = RateMonitor::new(SimDuration::from_minutes(5));
        let a = d("/a");
        let b = d("/b");
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            t += SimDuration::from_secs(2);
            m.record(&a, t);
        }
        let docs = [a.clone(), b.clone()];
        let mean = m.mean_rate_per_minute(docs.iter(), t);
        let ra = m.rate_per_minute(&a, t);
        assert!((mean - ra / 2.0).abs() < 0.5);
        assert_eq!(m.mean_rate_per_minute([].iter(), t), 0.0);
    }

    #[test]
    fn prune_drops_stale_counters() {
        let mut m = RateMonitor::new(SimDuration::from_minutes(1));
        let mut t = SimTime::ZERO;
        for i in 0..100 {
            m.record(&d(&format!("/{i}")), t);
        }
        assert_eq!(m.tracked(), 100);
        t += SimDuration::from_hours(2);
        m.record(&d("/fresh"), t);
        m.prune(t, 1e-6);
        assert_eq!(m.tracked(), 1);
    }

    #[test]
    #[should_panic(expected = "half-life must be non-zero")]
    fn zero_half_life_panics() {
        let _ = RateMonitor::new(SimDuration::ZERO);
    }
}
