//! The paper's two failure metrics (Section V):
//!
//! * **λ (failure generation rate)** — how many failure tickets a spatial
//!   unit generates per time window;
//! * **μ (concurrent failures)** — how many devices of a spatial unit are
//!   *simultaneously* unavailable during a time window. μ captures temporal
//!   correlation: two failures that overlap in time need two spares, two
//!   that don't can share one.
//!
//! Both metrics are computed at arbitrary spatial ([`SpatialGranularity`])
//! and temporal ([`TimeGranularity`]) resolution. Distributions are stored
//! sparsely: most windows see zero failures, so we keep only non-zero
//! windows plus the total window count.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::ids::ServerLocation;
use crate::rma::RmaTicket;
use crate::time::{SimTime, TimeGranularity};

/// Spatial aggregation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpatialGranularity {
    /// Whole datacenter.
    Datacenter,
    /// Region within a datacenter.
    Region,
    /// Row of racks.
    Row,
    /// Rack (the paper's provisioning granularity).
    Rack,
    /// Individual server.
    Server,
}

/// Key identifying one spatial unit at some granularity. Fields below the
/// granularity are zeroed so keys compare equal within a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpatialKey {
    /// Datacenter number.
    pub dc: u8,
    /// Region number (0 below Region granularity).
    pub region: u8,
    /// Row number (0 below Row granularity).
    pub row: u16,
    /// Rack number (0 below Rack granularity).
    pub rack: u32,
    /// Server number (0 below Server granularity).
    pub server: u32,
}

impl SpatialGranularity {
    /// Projects a server location onto a key at this granularity.
    pub fn key(&self, loc: &ServerLocation) -> SpatialKey {
        let mut key = SpatialKey { dc: loc.dc.0, region: 0, row: 0, rack: 0, server: 0 };
        if *self >= SpatialGranularity::Region {
            key.region = loc.region.0;
        }
        if *self >= SpatialGranularity::Row {
            key.row = loc.row.0;
        }
        if *self >= SpatialGranularity::Rack {
            key.rack = loc.rack.0;
        }
        if *self >= SpatialGranularity::Server {
            key.server = loc.server.0;
        }
        key
    }
}

/// A sparse per-window count distribution (λ) or max-concurrency
/// distribution (μ) over a fixed number of windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedSeries {
    /// Total number of windows in the observation span.
    pub windows: u64,
    /// Non-zero windows: window index → value.
    pub nonzero: BTreeMap<u64, u64>,
}

impl WindowedSeries {
    /// Creates an all-zero series over `windows` windows.
    pub fn zeros(windows: u64) -> Self {
        WindowedSeries { windows, nonzero: BTreeMap::new() }
    }

    /// Sum of values over all windows.
    pub fn total(&self) -> u64 {
        self.nonzero.values().sum()
    }

    /// Mean value per window (zero-inclusive).
    pub fn mean(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.total() as f64 / self.windows as f64
    }

    /// Adds `delta` at window `w`. Out-of-range windows clamp to the last
    /// window, so a stray ticket can never create more non-zero entries
    /// than the span has windows (the underflow `quantile`/`stddev` used
    /// to hit). No-op on a zero-window span.
    pub fn add(&mut self, w: u64, delta: u64) {
        if self.windows == 0 || delta == 0 {
            return;
        }
        let w = w.min(self.windows - 1);
        *self.nonzero.entry(w).or_insert(0) += delta;
    }

    /// Raises window `w` to at least `value`, clamping like [`Self::add`].
    pub fn record_max(&mut self, w: u64, value: u64) {
        if self.windows == 0 || value == 0 {
            return;
        }
        let w = w.min(self.windows - 1);
        let slot = self.nonzero.entry(w).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Sample standard deviation per window (zero-inclusive). Zero for
    /// degenerate spans (`windows < 2`); a malformed series with more
    /// non-zero entries than windows saturates its zero count at zero
    /// instead of underflowing.
    pub fn stddev(&self) -> f64 {
        if self.windows < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let nonzero_ss: f64 = self.nonzero.values().map(|&v| (v as f64 - mean).powi(2)).sum();
        let zero_count = self.windows.saturating_sub(self.nonzero.len() as u64);
        let ss = nonzero_ss + zero_count as f64 * mean * mean;
        (ss / (self.windows - 1) as f64).sqrt()
    }

    /// Maximum value over all windows (zero if no non-zero window).
    pub fn max(&self) -> u64 {
        self.nonzero.values().copied().max().unwrap_or(0)
    }

    /// The `q`-quantile (inverse-CDF definition, zero-inclusive).
    ///
    /// `q` is clamped to `[0, 1]`. With `Z` zero windows and sorted non-zero
    /// values, the quantile is 0 while the rank falls inside the zero mass.
    /// Delegates to the shared zero-mass-aware helper in `rainshine-stats`.
    pub fn quantile(&self, q: f64) -> u64 {
        let mut values: Vec<u64> = self.nonzero.values().copied().collect();
        values.sort_unstable();
        rainshine_stats::ecdf::quantile_with_zeros(&values, self.windows, q)
    }
}

/// λ: tickets opened per (spatial unit, time window).
///
/// Only tickets within `[start, end)` are counted. Units absent from the
/// ticket stream are absent from the map — use [`ensure_units`] to add
/// all-zero series for known-quiet units.
pub fn lambda(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    let mut out: BTreeMap<SpatialKey, WindowedSeries> = BTreeMap::new();
    for t in tickets {
        if t.opened < start || t.opened >= end {
            continue;
        }
        let key = spatial.key(&t.location);
        let w = temporal.window_of(t.opened) - base;
        let series = out.entry(key).or_insert_with(|| WindowedSeries::zeros(windows));
        series.add(w, 1);
    }
    out
}

/// μ: number of **distinct devices** unavailable during each (spatial unit,
/// time window) — the paper's "number of devices with failures over a
/// duration".
///
/// A device contributes to every window its outage `[opened, resolved)`
/// overlaps. This is the provisioning-relevant count: a spare allocated for
/// a window must cover every device that fails within it, so two
/// *non-overlapping* failures in the same day still need two spares at
/// daily granularity but only one at hourly granularity — the temporal
/// multiplexing the paper exploits in Fig. 12. Tickets still open at `end`
/// are clamped; a ticket with `resolved == opened` still occupies its
/// opening window.
///
/// See [`peak_concurrency`] for the instantaneous-overlap variant.
pub fn mu(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    // (unit, window) -> distinct devices.
    let mut per_unit: BTreeMap<SpatialKey, BTreeMap<u64, std::collections::BTreeSet<u64>>> =
        BTreeMap::new();
    for t in tickets {
        if t.resolved < start || t.opened >= end {
            continue;
        }
        let open = t.opened.hours().max(start.hours());
        let close = t.resolved.hours().clamp(open + 1, end.hours().max(open + 1));
        let w_from = temporal.window_of(SimTime(open)).saturating_sub(base);
        let w_to = temporal
            .window_of(SimTime(close - 1))
            .saturating_sub(base)
            .min(windows.saturating_sub(1));
        let unit = per_unit.entry(spatial.key(&t.location)).or_default();
        for w in w_from..=w_to {
            unit.entry(w).or_default().insert(t.device.0);
        }
    }
    per_unit
        .into_iter()
        .map(|(key, by_window)| {
            let mut series = WindowedSeries::zeros(windows);
            for (w, devices) in by_window {
                series.add(w, devices.len() as u64);
            }
            (key, series)
        })
        .collect()
}

/// Peak instantaneous concurrency of open tickets per (spatial unit, time
/// window): within a window the value is the *maximum* number of
/// simultaneously open tickets. Unlike [`mu`], non-overlapping outages in
/// the same window do not stack.
pub fn peak_concurrency(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    // Group intervals per unit.
    let mut per_unit: BTreeMap<SpatialKey, Vec<(u64, u64)>> = BTreeMap::new();
    for t in tickets {
        if t.resolved < start || t.opened >= end {
            continue;
        }
        let open = t.opened.hours().max(start.hours());
        // Half-open [open, close), minimum one hour of occupancy.
        let close = t.resolved.hours().clamp(open + 1, end.hours().max(open + 1));
        per_unit.entry(spatial.key(&t.location)).or_default().push((open, close));
    }
    let mut out = BTreeMap::new();
    for (key, intervals) in per_unit {
        let mut series = WindowedSeries::zeros(windows);
        // Event sweep: +1 at open, −1 at close.
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
        for (open, close) in &intervals {
            events.push((*open, 1));
            events.push((*close, -1));
        }
        events.sort_unstable();
        let mut concurrency: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            // Apply all events at this instant.
            while i < events.len() && events[i].0 == t {
                concurrency += events[i].1;
                i += 1;
            }
            if concurrency <= 0 {
                continue;
            }
            // Concurrency holds on [t, next_event_or_end).
            let span_end = if i < events.len() { events[i].0 } else { end.hours() };
            let w_from = temporal.window_of(SimTime(t)).saturating_sub(base);
            let w_to = temporal
                .window_of(SimTime(span_end.max(t + 1) - 1))
                .saturating_sub(base)
                .min(windows.saturating_sub(1));
            for w in w_from..=w_to {
                series.record_max(w, concurrency as u64);
            }
        }
        out.insert(key, series);
    }
    out
}

/// Adds all-zero series for every unit in `units` missing from `map`, so
/// quiet racks participate in distributions (critical for provisioning:
/// a rack with no failures still needs its zero counted).
pub fn ensure_units<I: IntoIterator<Item = SpatialKey>>(
    map: &mut BTreeMap<SpatialKey, WindowedSeries>,
    units: I,
    windows: u64,
) {
    for key in units {
        map.entry(key).or_insert_with(|| WindowedSeries::zeros(windows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId};
    use crate::rma::{FaultKind, HardwareFault, RmaTicket};

    fn ticket(rack: u32, server: u32, opened: u64, resolved: u64) -> RmaTicket {
        RmaTicket {
            device: DeviceId(server as u64),
            location: ServerLocation {
                dc: DcId(1),
                region: RegionId(1),
                row: RowId(1),
                rack: RackId(rack),
                server: ServerId(server),
            },
            fault: FaultKind::Hardware(HardwareFault::Disk),
            opened: SimTime(opened),
            resolved: SimTime(resolved),
            repeat_count: 0,
            false_positive: false,
        }
    }

    #[test]
    fn lambda_counts_per_window() {
        let tickets = [ticket(1, 1, 2, 5), ticket(1, 2, 30, 31), ticket(2, 3, 2, 3)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map = lambda(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime(48),
        );
        let rack1 = SpatialGranularity::Rack.key(&tickets[0].location);
        let s = &map[&rack1];
        assert_eq!(s.windows, 2);
        assert_eq!(s.nonzero[&0], 1);
        assert_eq!(s.nonzero[&1], 1);
        assert_eq!(s.total(), 2);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn lambda_ignores_out_of_span() {
        let tickets = [ticket(1, 1, 100, 101)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map = lambda(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime(48),
        );
        assert!(map.is_empty());
    }

    #[test]
    fn mu_counts_devices_per_window() {
        // Two devices down during day 0; one still down on day 1.
        let tickets = [ticket(1, 1, 5, 20), ticket(1, 2, 10, 30)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, SimTime(0), SimTime(72));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        let s = &map[&key];
        assert_eq!(s.nonzero[&0], 2);
        assert_eq!(s.nonzero[&1], 1);
        assert_eq!(s.max(), 2);
    }

    #[test]
    fn mu_daily_stacks_but_hourly_multiplexes() {
        // Non-overlapping outages in one day: both devices count at daily
        // granularity (2 spares needed for the day) but hourly windows see
        // at most one at a time (Fig. 12's multiplexing).
        let tickets = [ticket(1, 1, 1, 3), ticket(1, 2, 10, 12)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let daily =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, SimTime(0), SimTime(24));
        let hourly =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(daily[&key].max(), 2);
        assert_eq!(hourly[&key].max(), 1);
        assert_eq!(hourly[&key].nonzero.len(), 4);
    }

    #[test]
    fn mu_dedupes_same_device_within_window() {
        // The same device failing twice in one day needs one spare.
        let tickets = [ticket(1, 1, 1, 3), ticket(1, 1, 10, 12)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let daily =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(daily[&key].max(), 1);
    }

    #[test]
    fn peak_concurrency_ignores_non_overlap() {
        let tickets = [ticket(1, 1, 1, 3), ticket(1, 2, 10, 12)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let daily = peak_concurrency(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime(24),
        );
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(daily[&key].max(), 1, "never simultaneously open");
    }

    #[test]
    fn mu_instant_ticket_occupies_opening_window() {
        let tickets = [ticket(1, 1, 5, 5)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(map[&key].nonzero[&5], 1);
    }

    #[test]
    fn spatial_keys_zero_below_granularity() {
        let loc = ServerLocation {
            dc: DcId(2),
            region: RegionId(3),
            row: RowId(4),
            rack: RackId(5),
            server: ServerId(6),
        };
        let dc_key = SpatialGranularity::Datacenter.key(&loc);
        assert_eq!(dc_key, SpatialKey { dc: 2, region: 0, row: 0, rack: 0, server: 0 });
        let server_key = SpatialGranularity::Server.key(&loc);
        assert_eq!(server_key.server, 6);
        assert_eq!(server_key.rack, 5);
    }

    #[test]
    fn windowed_series_stats() {
        let mut s = WindowedSeries::zeros(10);
        s.nonzero.insert(3, 2);
        s.nonzero.insert(7, 4);
        assert_eq!(s.total(), 6);
        assert!((s.mean() - 0.6).abs() < 1e-12);
        assert_eq!(s.max(), 4);
        // Dense check of stddev.
        let mut dense = vec![0.0; 10];
        dense[3] = 2.0;
        dense[7] = 4.0;
        let batch = rainshine_stats::describe::Summary::from_slice(&dense).unwrap();
        assert!((s.stddev() - batch.sample_stddev()).abs() < 1e-12);
    }

    #[test]
    fn windowed_series_quantiles_with_zero_mass() {
        let mut s = WindowedSeries::zeros(10);
        s.nonzero.insert(0, 1);
        s.nonzero.insert(1, 5);
        // 80% of windows are zero.
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.8), 0);
        assert_eq!(s.quantile(0.9), 1);
        assert_eq!(s.quantile(1.0), 5);
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn overfull_series_does_not_underflow() {
        // Hand-built series with more non-zero entries than windows — the
        // shape `to_dense` already guards against. Pre-PR, `quantile` and
        // `stddev` computed `windows - nonzero.len()` and underflowed
        // (debug panic, release garbage); now the zero mass saturates.
        let mut s = WindowedSeries::zeros(3);
        s.nonzero.insert(0, 1);
        s.nonzero.insert(1, 2);
        s.nonzero.insert(5, 4);
        s.nonzero.insert(6, 8);
        assert_eq!(s.quantile(0.0), 1);
        // Ranks cap at `windows`, so the top quantile is the 3rd sorted
        // value, not the spurious 4th.
        assert_eq!(s.quantile(1.0), 4);
        assert!(s.stddev().is_finite());
        assert!(s.stddev() >= 0.0);
    }

    #[test]
    fn degenerate_span_stddev_is_zero_not_nan() {
        let mut s = WindowedSeries::zeros(1);
        s.add(0, 7);
        assert_eq!(s.stddev(), 0.0);
        let empty = WindowedSeries::zeros(0);
        assert_eq!(empty.stddev(), 0.0);
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn add_clamps_out_of_range_windows() {
        let mut s = WindowedSeries::zeros(4);
        s.add(99, 2);
        s.record_max(1_000_000, 5);
        assert_eq!(s.nonzero.len(), 1);
        assert_eq!(s.nonzero[&3], 5);
        assert_eq!(s.max(), 5);
        // Zero-window spans swallow writes instead of panicking.
        let mut empty = WindowedSeries::zeros(0);
        empty.add(0, 1);
        empty.record_max(0, 1);
        assert!(empty.nonzero.is_empty());
    }

    #[test]
    fn ensure_units_adds_zeros() {
        let mut map = BTreeMap::new();
        let key = SpatialKey { dc: 1, region: 0, row: 0, rack: 9, server: 0 };
        ensure_units(&mut map, [key], 5);
        assert_eq!(map[&key].windows, 5);
        assert_eq!(map[&key].total(), 0);
    }
}
