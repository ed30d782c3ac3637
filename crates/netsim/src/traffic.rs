//! Traffic accounting: bytes moved per message kind and scope, binned per
//! unit time.

use cachecloud_metrics::BinnedSeries;
use cachecloud_types::{ByteSize, SimDuration, SimTime};

use crate::message::MessageKind;

/// Accumulates network traffic by message kind and scope.
///
/// The paper's Figures 8–9 plot "total network traffic in the clouds" in MB
/// transferred per unit time; [`TrafficMeter::mb_per_unit_time`] reports
/// exactly that.
///
/// # Examples
///
/// ```
/// use cachecloud_net::{MessageKind, TrafficMeter};
/// use cachecloud_types::{ByteSize, SimTime, SimDuration};
///
/// let mut m = TrafficMeter::per_minute();
/// m.record(SimTime::ZERO, MessageKind::DocTransfer, ByteSize::from_kib(64), true);
/// m.record(SimTime::ZERO, MessageKind::UpdateNotice, ByteSize::from_kib(64), false);
/// assert!(m.total().as_bytes() > 2 * 64 * 1024);
/// assert!(m.mb_per_unit_time(1) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficMeter {
    bin_width: SimDuration,
    series: BinnedSeries,
    /// Bytes per kind, indexed by [`MessageKind::index`].
    by_kind: [u64; MessageKind::COUNT],
    intra_cloud: u64,
    wide_area: u64,
    messages: u64,
}

impl TrafficMeter {
    /// A meter binned at the paper's unit time (one minute).
    pub fn per_minute() -> Self {
        Self::with_bin(SimDuration::from_minutes(1))
    }

    /// A meter with a custom bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn with_bin(bin_width: SimDuration) -> Self {
        TrafficMeter {
            bin_width,
            series: BinnedSeries::new(bin_width),
            by_kind: [0; MessageKind::COUNT],
            intra_cloud: 0,
            wide_area: 0,
            messages: 0,
        }
    }

    /// Records one message of `kind` carrying `body` at time `at`;
    /// `intra_cloud` is true for traffic between caches of the same cloud,
    /// false for wide-area traffic to/from the origin.
    pub fn record(&mut self, at: SimTime, kind: MessageKind, body: ByteSize, intra_cloud: bool) {
        let wire = kind.wire_size(body);
        self.series.record(at, wire.as_mb_f64());
        self.by_kind[kind.index()] += wire.as_bytes();
        if intra_cloud {
            self.intra_cloud += wire.as_bytes();
        } else {
            self.wide_area += wire.as_bytes();
        }
        self.messages += 1;
    }

    /// Total bytes moved.
    pub fn total(&self) -> ByteSize {
        ByteSize::from_bytes(self.intra_cloud + self.wide_area)
    }

    /// Bytes moved between caches of the same cloud.
    pub fn intra_cloud_total(&self) -> ByteSize {
        ByteSize::from_bytes(self.intra_cloud)
    }

    /// Bytes moved over the wide area (to/from the origin).
    pub fn wide_area_total(&self) -> ByteSize {
        ByteSize::from_bytes(self.wide_area)
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Bytes moved by one message kind.
    pub fn bytes_for(&self, kind: MessageKind) -> ByteSize {
        ByteSize::from_bytes(self.by_kind[kind.index()])
    }

    /// Mean MB transferred per time bin over exactly `bins` bins (the
    /// figure metric; pass the trace length in unit times).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn mb_per_unit_time(&self, bins: usize) -> f64 {
        self.series.mean_rate_over(bins)
    }

    /// The underlying per-bin MB series.
    pub fn series(&self) -> &BinnedSeries {
        &self.series
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }
}

impl Default for TrafficMeter {
    fn default() -> Self {
        TrafficMeter::per_minute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::CONTROL_BYTES;

    #[test]
    fn conservation_across_views() {
        let mut m = TrafficMeter::per_minute();
        let t = SimTime::ZERO;
        m.record(t, MessageKind::LookupRequest, ByteSize::ZERO, true);
        m.record(t, MessageKind::DocTransfer, ByteSize::from_kib(1), true);
        m.record(t, MessageKind::UpdateNotice, ByteSize::from_kib(2), false);
        // kind view == scope view == total
        let by_kind: u64 = MessageKind::all()
            .iter()
            .map(|k| m.bytes_for(*k).as_bytes())
            .sum();
        assert_eq!(by_kind, m.total().as_bytes());
        assert_eq!(
            m.intra_cloud_total().as_bytes() + m.wide_area_total().as_bytes(),
            m.total().as_bytes()
        );
        assert_eq!(m.messages(), 3);
    }

    #[test]
    fn per_unit_time_rate() {
        let mut m = TrafficMeter::per_minute();
        // 2 MB in minute 0, nothing in minute 1.
        m.record(
            SimTime::ZERO,
            MessageKind::DocTransfer,
            ByteSize::from_bytes(2_000_000 - CONTROL_BYTES),
            true,
        );
        let rate = m.mb_per_unit_time(2);
        assert!((rate - 1.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn unknown_kind_reads_zero() {
        let m = TrafficMeter::per_minute();
        assert_eq!(m.bytes_for(MessageKind::DocTransfer), ByteSize::ZERO);
        assert_eq!(m.total(), ByteSize::ZERO);
    }
}
