//! Property-based tests for the analysis framework.

use proptest::prelude::*;
use rainshine_core::predict::Confusion;
use rainshine_core::q1::{provision_servers, ProvisionParams, RackDeficits};
use rainshine_core::tco::TcoModel;
use rainshine_dcsim::{FleetConfig, Simulation};
use rainshine_telemetry::ids::{RackId, Workload};
use rainshine_telemetry::time::{SimTime, TimeGranularity};

fn deficits_strategy() -> impl Strategy<Value = RackDeficits> {
    (1u32..50, 10u64..500, prop::collection::vec(1u64..20, 0..30)).prop_map(
        |(servers, windows, deficits)| RackDeficits {
            rack: RackId(1),
            servers,
            active_windows: windows.max(deficits.len() as u64),
            deficits,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rack_deficit_quantile_monotone_in_coverage(
        d in deficits_strategy(),
        a in 0.0f64..=1.0,
        b in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.quantile(lo) <= d.quantile(hi));
        // Max coverage returns the max deficit; zero coverage returns zero
        // (there is always at least one window).
        let max = d.deficits.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(d.quantile(1.0), max);
        prop_assert!(d.fraction(1.0) <= max as f64 / d.servers as f64 + 1e-12);
    }

    #[test]
    fn tco_deployment_monotone_in_spares(
        base in 1.0f64..1e4,
        s1 in 0.0f64..1e3,
        extra in 0.0f64..1e3,
    ) {
        let m = TcoModel::default();
        prop_assert!(m.deployment_tco(base, s1) <= m.deployment_tco(base, s1 + extra));
        // Savings sign convention.
        let savings = m.relative_savings(base, s1, s1 + extra);
        prop_assert!(savings >= 0.0);
        prop_assert!(m.relative_savings(base, s1 + extra, s1) <= 0.0);
        prop_assert!(savings < 1.0);
    }

    #[test]
    fn confusion_metrics_bounded(
        tp in 0u64..1000,
        fp in 0u64..1000,
        tn in 0u64..1000,
        r#fn in 0u64..1000,
    ) {
        let c = Confusion {
            true_positives: tp,
            false_positives: fp,
            true_negatives: tn,
            false_negatives: r#fn,
        };
        for v in [c.precision(), c.recall(), c.f1(), c.accuracy(), c.base_rate()] {
            prop_assert!((0.0..=1.0).contains(&v), "{v}");
        }
        // F1 is a mean of precision and recall: it lies between them.
        let (p, r) = (c.precision(), c.recall());
        if p > 0.0 && r > 0.0 {
            prop_assert!(c.f1() >= p.min(r) - 1e-12);
            prop_assert!(c.f1() <= p.max(r) + 1e-12);
        }
    }
}

// Simulation-backed properties use few cases: each case runs a small fleet.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn provisioning_invariants_across_seeds(seed in 0u64..1000) {
        let config = FleetConfig {
            end: SimTime::from_days(120),
            ..FleetConfig::small()
        };
        let out = Simulation::new(config, seed).run();
        for workload in [Workload::W1, Workload::W6] {
            let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
            let Ok(r) = provision_servers(&out, workload, &params) else {
                continue; // workload absent in a tiny fleet is fine
            };
            prop_assert!(r.lb.spares >= 0.0);
            prop_assert!(r.lb.spares <= r.sf.spares + 1e-9);
            prop_assert!(r.mf.spares <= r.sf.spares + 1e-9);
            prop_assert!(r.sf.spares <= r.servers);
            let cluster_racks: usize = r.clusters.iter().map(|c| c.racks.len()).sum();
            prop_assert!(cluster_racks > 0);
        }
    }
}
