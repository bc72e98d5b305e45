//! Property-based tests for the telemetry data model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rainshine_telemetry::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation};
use rainshine_telemetry::metrics::{
    ensure_units, lambda, mu, SpatialGranularity, SpatialKey, WindowedSeries,
};
use rainshine_telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
use rainshine_telemetry::time::{SimTime, TimeGranularity};

/// One device's outages: a first ticket, then follow-ups whose gap to the
/// previous resolution is negative (overlapping), zero (adjacent) or
/// positive (disjoint). Durations include zero (`resolved == opened`) and
/// occasional multi-month outages. Few racks and servers per row, so
/// devices recur across chains too.
fn outage_chain_strategy() -> impl Strategy<Value = Vec<RmaTicket>> {
    let outage = (-40i64..60, 0u64..96, 0u8..8, 0u64..1200)
        .prop_map(|(gap, short, pick, long)| (gap, if pick == 0 { long } else { short }));
    (
        1u8..=2,
        1u8..=2,
        1u16..=2,
        1u32..=3,
        1u32..=4,
        0u64..6000,
        prop::collection::vec(outage, 1..4),
    )
        .prop_map(|(dc, region, row, rack, server, first, outages)| {
            let location = ServerLocation {
                dc: DcId(dc),
                region: RegionId(region),
                row: RowId(row),
                rack: RackId(rack),
                server: ServerId(server),
            };
            let mut opened = first;
            let mut chain: Vec<RmaTicket> = Vec::with_capacity(outages.len());
            for (gap, duration) in outages {
                if let Some(prev) = chain.last() {
                    opened = prev.resolved.hours().saturating_add_signed(gap);
                }
                chain.push(RmaTicket {
                    device: DeviceId(server as u64 | (rack as u64) << 32),
                    location,
                    fault: FaultKind::Hardware(HardwareFault::Disk),
                    opened: SimTime(opened),
                    resolved: SimTime(opened + duration),
                    repeat_count: 0,
                    false_positive: false,
                });
            }
            chain
        })
}

/// Tickets from several outage chains.
fn tickets_strategy(max_chains: usize) -> impl Strategy<Value = Vec<RmaTicket>> {
    prop::collection::vec(outage_chain_strategy(), 1..max_chains)
        .prop_map(|chains| chains.into_iter().flatten().collect())
}

/// An observation span `[start, end)` that tickets open before, outlast and
/// miss entirely; about one span in eleven is empty (`end <= start`).
fn span_strategy() -> impl Strategy<Value = (SimTime, SimTime)> {
    (0u64..3000, -800i64..8000)
        .prop_map(|(start, len)| (SimTime(start), SimTime(start.saturating_add_signed(len))))
}

/// μ as one set insert per (unit, window, device): the direct definition
/// the sweep in `metrics::mu` must reproduce exactly.
fn mu_reference(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    // (unit, window) -> distinct devices.
    let mut per_unit: BTreeMap<SpatialKey, BTreeMap<u64, BTreeSet<u64>>> = BTreeMap::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn mu_matches_set_reference(tickets in tickets_strategy(24), span in span_strategy()) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let (start, end) = span;
        for temporal in [
            TimeGranularity::Hourly,
            TimeGranularity::Daily,
            TimeGranularity::Weekly,
            TimeGranularity::Monthly,
        ] {
            for spatial in [
                SpatialGranularity::Rack,
                SpatialGranularity::Server,
                SpatialGranularity::Datacenter,
            ] {
                prop_assert_eq!(
                    mu(&refs, spatial, temporal, start, end),
                    mu_reference(&refs, spatial, temporal, start, end),
                    "{:?} {:?} over [{}, {})",
                    temporal,
                    spatial,
                    start.hours(),
                    end.hours()
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn calendar_roundtrip(days in 0u64..2000, hour in 0u8..24) {
        let t = SimTime::from_days(days).plus_hours(hour as u64);
        let d = t.date();
        let rebuilt = SimTime::from_date(d.year, d.month, d.day, t.hour_of_day());
        prop_assert_eq!(rebuilt, t);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
        prop_assert!((1..=53).contains(&t.week_of_year()));
    }

    #[test]
    fn windows_are_consistent(hours in 0u64..50_000) {
        let t = SimTime(hours);
        for g in [
            TimeGranularity::Hourly,
            TimeGranularity::Daily,
            TimeGranularity::Weekly,
            TimeGranularity::Monthly,
        ] {
            let w = g.window_of(t);
            let start = g.window_start(w);
            // The window's start is at or before t, and t falls inside the
            // window that starts there.
            prop_assert!(start <= t, "{g:?}");
            prop_assert_eq!(g.window_of(start), w);
        }
    }

    #[test]
    fn lambda_total_equals_in_span_tickets(
        tickets in tickets_strategy(24),
        span_days in 10u64..120,
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(0);
        let end = SimTime::from_days(span_days);
        let map = lambda(&refs, SpatialGranularity::Datacenter, TimeGranularity::Daily, start, end);
        let total: u64 = map.values().map(|s| s.total()).sum();
        let expected =
            tickets.iter().filter(|t| t.opened >= start && t.opened < end).count() as u64;
        prop_assert_eq!(total, expected);
    }

    #[test]
    fn mu_hourly_never_exceeds_daily(
        tickets in tickets_strategy(24),
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(0);
        let end = SimTime::from_days(100);
        let daily = mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, start, end);
        let hourly = mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, start, end);
        for (key, hourly_series) in &hourly {
            let daily_max = daily.get(key).map(|s| s.max()).unwrap_or(0);
            // Any hour's device set is a subset of its day's device set.
            prop_assert!(
                hourly_series.max() <= daily_max,
                "hourly {} > daily {}",
                hourly_series.max(),
                daily_max
            );
        }
    }

    #[test]
    fn mu_bounded_by_distinct_devices(
        tickets in tickets_strategy(24),
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(0);
        let end = SimTime::from_days(100);
        let map = mu(&refs, SpatialGranularity::Datacenter, TimeGranularity::Daily, start, end);
        for (key, series) in &map {
            let devices: BTreeSet<u64> = tickets
                .iter()
                .filter(|t| SpatialGranularity::Datacenter.key(&t.location) == *key)
                .map(|t| t.device.0)
                .collect();
            prop_assert!(series.max() <= devices.len() as u64);
        }
    }

    #[test]
    fn windowed_series_quantile_monotone(
        tickets in tickets_strategy(16),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map = lambda(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime::from_days(100),
        );
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        for series in map.values() {
            prop_assert!(series.quantile(lo) <= series.quantile(hi));
            prop_assert!(series.quantile(1.0) == series.max());
            prop_assert!(series.mean() <= series.max() as f64 + 1e-12);
        }
    }

    #[test]
    fn ensure_units_is_idempotent(
        tickets in tickets_strategy(8),
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let mut map = lambda(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime::from_days(50),
        );
        let units: Vec<_> = tickets
            .iter()
            .map(|t| SpatialGranularity::Rack.key(&t.location))
            .collect();
        let before = map.clone();
        ensure_units(&mut map, units.clone(), 50);
        // Pre-existing entries are untouched; any newly added unit (e.g. a
        // rack whose only ticket fell outside the span) is all-zero.
        for (key, series) in &before {
            prop_assert_eq!(&map[key], series, "existing units untouched");
        }
        for (key, series) in &map {
            if !before.contains_key(key) {
                prop_assert_eq!(series.total(), 0);
                prop_assert_eq!(series.windows, 50);
            }
        }
        // Idempotence: a second application changes nothing.
        let after_once = map.clone();
        ensure_units(&mut map, units, 50);
        prop_assert_eq!(&map, &after_once);
    }
}
