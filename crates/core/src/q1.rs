//! Q1 — spare provisioning (Figs. 10–13, Table IV).
//!
//! Three approaches, as in Section VI:
//!
//! * **Lower bound (LB)** — per-rack spares computed from that rack's own
//!   (future) μ data: unachievable in practice, the floor for comparison;
//! * **Single factor (SF)** — one spare *fraction* for every rack of a
//!   workload, from the pooled CDF of μ across all its racks;
//! * **Multi factor (MF)** — CART clusters racks by the Table III features,
//!   then provisions each cluster from its own pooled CDF.
//!
//! A rack with `N` servers under availability SLA `a` may have at most
//! `floor((1−a)·N)` servers down before spares are consumed; the *deficit*
//! of a window is the device count μ beyond that allowance. Spares must
//! cover the `coverage`-quantile of each window's deficit ("at all times" →
//! coverage = 1.0, the default).

use std::collections::{BTreeMap, HashMap};

use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_dcsim::sku::{DIMM_COST, DISK_COST};
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::ids::{RackId, Workload};
use rainshine_telemetry::metrics::{self, SpatialGranularity};
use rainshine_telemetry::rma::{HardwareFault, RmaTicket};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;
use serde::{Deserialize, Serialize};

use crate::dataset::{rack_table, FaultFilter};
use crate::tco::TcoModel;
use crate::{AnalysisError, Result};

/// Features used to cluster racks for MF provisioning. Unlike
/// [`crate::DEFAULT_FEATURES`], the calendar ordinals are excluded: a
/// rack-level summary row has no meaningful day-of-week/month, only the
/// rack's static attributes and mean environment.
pub const CLUSTER_FEATURES: &[&str] = &[
    columns::SKU,
    columns::AGE_MONTHS,
    columns::RATED_POWER_KW,
    columns::TEMPERATURE_F,
    columns::RELATIVE_HUMIDITY,
    columns::DATACENTER,
    columns::REGION,
];

/// Parameters of a provisioning study.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionParams {
    /// Availability SLA: fraction of a rack's servers that must be
    /// available at all times (0.90, 0.95, 1.00 in the paper).
    pub sla: f64,
    /// Window granularity for μ (daily in Fig. 10, hourly in Fig. 12).
    pub granularity: TimeGranularity,
    /// Quantile of windows whose deficit must be covered (1.0 = every
    /// observed window).
    pub coverage: f64,
    /// CART parameters for the MF clustering.
    pub cart: CartParams,
}

impl ProvisionParams {
    /// Standard parameters for an SLA at a granularity.
    pub fn new(sla: f64, granularity: TimeGranularity) -> Self {
        ProvisionParams {
            sla,
            granularity,
            coverage: 1.0,
            cart: CartParams::default().with_min_sizes(8, 4).with_cp(0.01),
        }
    }

    fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.sla) {
            return Err(AnalysisError::InvalidParameter { name: "sla", value: self.sla });
        }
        if !(0.0..=1.0).contains(&self.coverage) {
            return Err(AnalysisError::InvalidParameter { name: "coverage", value: self.coverage });
        }
        Ok(())
    }
}

/// Per-rack deficit distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct RackDeficits {
    /// The rack.
    pub rack: RackId,
    /// Servers in the rack.
    pub servers: u32,
    /// Windows during which the rack was in service.
    pub active_windows: u64,
    /// Non-zero window deficits (device count beyond the SLA allowance).
    pub deficits: Vec<u64>,
}

impl RackDeficits {
    /// The `coverage`-quantile of the window deficit (zeros included).
    pub fn quantile(&self, coverage: f64) -> u64 {
        quantile_with_zeros(&self.deficits, self.active_windows, coverage)
    }

    /// Per-rack required spare fraction at `coverage`.
    pub fn fraction(&self, coverage: f64) -> f64 {
        self.quantile(coverage) as f64 / self.servers as f64
    }
}

/// Quantile of a distribution given its non-zero values and the total
/// observation count (the remainder are zeros). Delegates to the shared
/// zero-mass-aware helper in `rainshine-stats`.
fn quantile_with_zeros(nonzero: &[u64], total: u64, q: f64) -> u64 {
    let mut sorted = nonzero.to_vec();
    sorted.sort_unstable();
    rainshine_stats::ecdf::quantile_with_zeros(&sorted, total, q)
}

/// Fractional-deficit quantile pooled across racks (SF / per-cluster MF).
fn pooled_fraction_quantile(racks: &[&RackDeficits], q: f64) -> f64 {
    let mut fractions: Vec<f64> = Vec::new();
    let mut total: u64 = 0;
    for r in racks {
        total += r.active_windows;
        fractions.extend(r.deficits.iter().map(|&d| d as f64 / r.servers as f64));
    }
    fractions.sort_by(f64::total_cmp);
    rainshine_stats::ecdf::quantile_with_zeros(&fractions, total, q)
}

/// Computes per-rack deficits for the racks of one workload under `filter`.
pub fn rack_deficits(
    output: &SimulationOutput,
    workload: Workload,
    filter: FaultFilter,
    params: &ProvisionParams,
) -> Result<Vec<RackDeficits>> {
    params.validate()?;
    let racks: Vec<&rainshine_dcsim::topology::RackInfo> = output
        .fleet
        .racks_hosting(workload)
        .filter(|r| r.commissioned_day < output.config.end.days() as i64)
        .collect();
    if racks.is_empty() {
        return Err(AnalysisError::NoData { what: format!("no racks host {workload}") });
    }
    let tickets: Vec<&RmaTicket> =
        output.hardware_tickets().into_iter().filter(|t| filter.matches(t.fault)).collect();
    let mu = metrics::mu(
        &tickets,
        SpatialGranularity::Rack,
        params.granularity,
        output.config.start,
        output.config.end,
    );
    let total_windows = params.granularity.window_count(output.config.start, output.config.end);
    let start_window = params.granularity.window_of(output.config.start);
    let mut out = Vec::with_capacity(racks.len());
    for rack in racks {
        let allowed = ((1.0 - params.sla) * rack.servers as f64).floor() as u64;
        let commission_window = if rack.commissioned_day <= output.config.start.days() as i64 {
            0
        } else {
            params
                .granularity
                .window_of(rainshine_telemetry::time::SimTime::from_days(
                    rack.commissioned_day as u64,
                ))
                .saturating_sub(start_window)
        };
        let active_windows = total_windows.saturating_sub(commission_window);
        let key = SpatialGranularity::Rack.key(&rack.server_location(0));
        let deficits: Vec<u64> = mu
            .get(&key)
            .map(|series| {
                series
                    .nonzero
                    .values()
                    .filter_map(|&v| v.checked_sub(allowed).filter(|&d| d > 0))
                    .collect()
            })
            .unwrap_or_default();
        out.push(RackDeficits { rack: rack.id, servers: rack.servers, active_windows, deficits });
    }
    Ok(out)
}

/// MF clustering: fits CART on each rack's required spare fraction and
/// groups the racks by leaf.
///
/// The map is a `BTreeMap` because callers iterate it for order-sensitive
/// float sums and the cluster listing, so leaves must come out sorted.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the rack table names a rack that
/// has no deficits, or any underlying table/tree error.
fn mf_clusters<'a>(
    output: &SimulationOutput,
    deficits: &'a [RackDeficits],
    params: &ProvisionParams,
) -> Result<(Tree, BTreeMap<usize, Vec<&'a RackDeficits>>)> {
    let response: HashMap<RackId, f64> =
        deficits.iter().map(|r| (r.rack, r.fraction(params.coverage))).collect();
    let table = rack_table(output, &response)?;
    let ds = CartDataset::regression(&table, columns::FAILURE_RATE, CLUSTER_FEATURES)?;
    let tree = Tree::fit(&ds, &params.cart)?;
    let leaves = tree.leaf_assignments(&table)?;
    let rack_col = table.categories(columns::RACK)?;
    let rack_codes = table.nominal_codes(columns::RACK)?;
    // `rack_table` labels each rack with its id's `Display` form.
    let by_label: HashMap<String, &RackDeficits> =
        deficits.iter().map(|r| (r.rack.to_string(), r)).collect();
    let mut clusters: BTreeMap<usize, Vec<&RackDeficits>> = BTreeMap::new();
    for (row, &leaf) in leaves.iter().enumerate() {
        let label = &rack_col[rack_codes[row] as usize];
        let rack = by_label.get(label.as_str()).ok_or_else(|| AnalysisError::NoData {
            what: format!("rack table row {row} names rack {label}, which has no deficits"),
        })?;
        clusters.entry(leaf).or_default().push(rack);
    }
    Ok((tree, clusters))
}

/// One provisioning approach's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproachResult {
    /// Total spare servers (fractional: per-rack fractions summed).
    pub spares: f64,
    /// Over-provisioned capacity as a percentage of the workload's servers.
    pub overprovision_pct: f64,
}

/// One MF cluster (a CART leaf).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterInfo {
    /// Cluster index (ordered by spare fraction).
    pub id: usize,
    /// Racks in the cluster.
    pub racks: Vec<RackId>,
    /// Spare fraction provisioned for every rack of the cluster.
    pub spare_fraction: f64,
    /// Root-to-leaf split descriptions (the paper's cluster insights).
    pub path: Vec<String>,
    /// CDF points `(overprovision %, proportion ≤ x)` over the cluster's
    /// racks (Fig. 11 curves).
    pub cdf: Vec<(f64, f64)>,
}

/// Result of a server-level provisioning study (Figs. 10–12).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProvisioning {
    /// Workload studied.
    pub workload: Workload,
    /// Total servers across the workload's racks.
    pub servers: f64,
    /// Lower bound.
    pub lb: ApproachResult,
    /// Single factor.
    pub sf: ApproachResult,
    /// Multi factor.
    pub mf: ApproachResult,
    /// MF clusters, ordered by spare fraction.
    pub clusters: Vec<ClusterInfo>,
    /// CDF of per-rack LB overprovision % over all racks (Fig. 11's "SF"
    /// context curve).
    pub all_racks_cdf: Vec<(f64, f64)>,
    /// Ranked variable importance of the MF clustering tree.
    pub importance: Vec<(String, f64)>,
}

fn approach(spares: f64, servers: f64) -> ApproachResult {
    ApproachResult { spares, overprovision_pct: 100.0 * spares / servers.max(1.0) }
}

fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    match rainshine_stats::ecdf::Ecdf::new(values.to_vec()) {
        Ok(e) => e.steps(),
        Err(_) => Vec::new(),
    }
}

/// Runs the full LB / SF / MF server-level provisioning comparison for one
/// workload.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the workload has no racks, or any
/// underlying table/tree error.
pub fn provision_servers(
    output: &SimulationOutput,
    workload: Workload,
    params: &ProvisionParams,
) -> Result<ServerProvisioning> {
    let deficits = rack_deficits(output, workload, FaultFilter::AllHardware, params)?;
    let servers: f64 = deficits.iter().map(|r| r.servers as f64).sum();

    // LB: per-rack spares from each rack's own data.
    let lb_spares: f64 = deficits.iter().map(|r| r.quantile(params.coverage) as f64).sum();

    // SF: one pooled fraction for every rack.
    let all: Vec<&RackDeficits> = deficits.iter().collect();
    let sf_fraction = pooled_fraction_quantile(&all, params.coverage);
    let sf_spares = sf_fraction * servers;

    // MF: cluster racks with CART on per-rack required fraction.
    let (tree, cluster_map) = mf_clusters(output, &deficits, params)?;
    let mut mf_spares = 0.0;
    let mut clusters = Vec::new();
    for (leaf, members) in &cluster_map {
        let fraction = pooled_fraction_quantile(members, params.coverage);
        let cluster_servers: f64 = members.iter().map(|r| r.servers as f64).sum();
        mf_spares += fraction * cluster_servers;
        let per_rack_pct: Vec<f64> =
            members.iter().map(|r| 100.0 * r.fraction(params.coverage)).collect();
        clusters.push(ClusterInfo {
            id: 0,
            racks: members.iter().map(|r| r.rack).collect(),
            spare_fraction: fraction,
            path: tree.path_to(*leaf),
            cdf: cdf_points(&per_rack_pct),
        });
    }
    clusters.sort_by(|a, b| a.spare_fraction.total_cmp(&b.spare_fraction));
    for (i, c) in clusters.iter_mut().enumerate() {
        c.id = i + 1;
    }

    let all_pct: Vec<f64> = deficits.iter().map(|r| 100.0 * r.fraction(params.coverage)).collect();

    Ok(ServerProvisioning {
        workload,
        servers,
        lb: approach(lb_spares, servers),
        sf: approach(sf_spares, servers),
        mf: approach(mf_spares, servers),
        clusters,
        all_racks_cdf: cdf_points(&all_pct),
        importance: tree.variable_importance(),
    })
}

/// Table IV: relative TCO savings of MF over SF.
pub fn tco_savings(result: &ServerProvisioning, tco: &TcoModel) -> f64 {
    tco.relative_savings(result.servers, result.mf.spares, result.sf.spares)
}

/// Cost (in relative units) of one provisioning level under the three
/// approaches (Fig. 13 bars).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostTriple {
    /// Lower bound cost.
    pub lb: f64,
    /// Single-factor cost.
    pub sf: f64,
    /// Multi-factor cost.
    pub mf: f64,
}

/// Result of the component- vs server-level comparison (Q1-B, Fig. 13).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentProvisioning {
    /// Workload studied.
    pub workload: Workload,
    /// Total servers across the workload's racks.
    pub servers: f64,
    /// Cost of provisioning whole-server spares for all hardware failures.
    pub server_level: CostTriple,
    /// Cost of disk + DIMM spares for disk/memory failures plus server
    /// spares for the remaining hardware failures.
    pub component_level: CostTriple,
}

impl ComponentProvisioning {
    /// Costs as a percentage of the workload's base server cost
    /// (`servers × 100`), the normalization of Fig. 13.
    pub fn as_pct_of_fleet_cost(&self, cost: f64) -> f64 {
        100.0 * cost / (self.servers * 100.0)
    }
}

/// LB/SF/MF spare *counts* for one fault filter.
fn spares_triple(
    output: &SimulationOutput,
    workload: Workload,
    filter: FaultFilter,
    params: &ProvisionParams,
) -> Result<(f64, f64, f64, f64)> {
    let deficits = rack_deficits(output, workload, filter, params)?;
    let servers: f64 = deficits.iter().map(|r| r.servers as f64).sum();
    let lb: f64 = deficits.iter().map(|r| r.quantile(params.coverage) as f64).sum();
    let all: Vec<&RackDeficits> = deficits.iter().collect();
    let sf = pooled_fraction_quantile(&all, params.coverage) * servers;
    // MF clustering on this filter's per-rack fractions.
    let (_, cluster_map) = mf_clusters(output, &deficits, params)?;
    let mut mf = 0.0;
    for members in cluster_map.values() {
        let fraction = pooled_fraction_quantile(members, params.coverage);
        let cluster_servers: f64 = members.iter().map(|r| r.servers as f64).sum();
        mf += fraction * cluster_servers;
    }
    Ok((lb, sf, mf, servers))
}

/// Runs the component- vs server-level spare cost comparison.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the workload has no racks.
pub fn provision_components(
    output: &SimulationOutput,
    workload: Workload,
    params: &ProvisionParams,
) -> Result<ComponentProvisioning> {
    let server_price = 100.0;
    // Server-level: whole-server spares for all hardware failures.
    let (lb_all, sf_all, mf_all, servers) =
        spares_triple(output, workload, FaultFilter::AllHardware, params)?;
    let server_level = CostTriple {
        lb: lb_all * server_price,
        sf: sf_all * server_price,
        mf: mf_all * server_price,
    };
    // Component-level: disks and DIMMs get their own (cheap) spares; the
    // rest still needs server spares.
    let (lb_d, sf_d, mf_d, _) =
        spares_triple(output, workload, FaultFilter::Component(HardwareFault::Disk), params)?;
    let (lb_m, sf_m, mf_m, _) =
        spares_triple(output, workload, FaultFilter::Component(HardwareFault::Memory), params)?;
    // Remaining hardware faults share one server-spare pool: a power,
    // board, or NIC failure downs the server either way.
    let (lb_o, sf_o, mf_o, _) =
        spares_triple(output, workload, FaultFilter::OtherHardware, params)?;
    let component_level = CostTriple {
        lb: lb_d * DISK_COST + lb_m * DIMM_COST + lb_o * server_price,
        sf: sf_d * DISK_COST + sf_m * DIMM_COST + sf_o * server_price,
        mf: mf_d * DISK_COST + mf_m * DIMM_COST + mf_o * server_price,
    };
    Ok(ComponentProvisioning { workload, servers, server_level, component_level })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_dcsim::{FleetConfig, Simulation};

    fn sim() -> SimulationOutput {
        Simulation::new(FleetConfig::medium(), 17).run()
    }

    #[test]
    fn quantile_with_zeros_behaviour() {
        assert_eq!(quantile_with_zeros(&[], 100, 1.0), 0);
        assert_eq!(quantile_with_zeros(&[3, 1, 2], 10, 1.0), 3);
        assert_eq!(quantile_with_zeros(&[3, 1, 2], 10, 0.7), 0);
        assert_eq!(quantile_with_zeros(&[3, 1, 2], 10, 0.8), 1);
        assert_eq!(quantile_with_zeros(&[5], 0, 1.0), 0);
    }

    #[test]
    fn lb_below_mf_below_sf() {
        let out = sim();
        let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = provision_servers(&out, Workload::W1, &params).unwrap();
        assert!(r.lb.spares > 0.0, "some spares needed at 100% SLA");
        assert!(r.lb.spares <= r.mf.spares + 1e-9, "LB {} <= MF {}", r.lb.spares, r.mf.spares);
        assert!(r.mf.spares <= r.sf.spares + 1e-9, "MF {} <= SF {}", r.mf.spares, r.sf.spares);
        assert!(!r.clusters.is_empty());
        let cluster_racks: usize = r.clusters.iter().map(|c| c.racks.len()).sum();
        assert_eq!(
            cluster_racks as f64,
            r.all_racks_cdf.last().map(|_| cluster_racks as f64).unwrap()
        );
    }

    #[test]
    fn looser_sla_needs_fewer_spares() {
        let out = sim();
        let tight = provision_servers(
            &out,
            Workload::W6,
            &ProvisionParams::new(1.0, TimeGranularity::Daily),
        )
        .unwrap();
        let loose = provision_servers(
            &out,
            Workload::W6,
            &ProvisionParams::new(0.90, TimeGranularity::Daily),
        )
        .unwrap();
        assert!(loose.sf.spares <= tight.sf.spares);
        assert!(loose.lb.spares <= tight.lb.spares);
    }

    #[test]
    fn hourly_multiplexing_reduces_mf() {
        let out = sim();
        let daily = provision_servers(
            &out,
            Workload::W1,
            &ProvisionParams::new(1.0, TimeGranularity::Daily),
        )
        .unwrap();
        let hourly = provision_servers(
            &out,
            Workload::W1,
            &ProvisionParams::new(1.0, TimeGranularity::Hourly),
        )
        .unwrap();
        assert!(
            hourly.mf.spares < daily.mf.spares,
            "hourly {} < daily {}",
            hourly.mf.spares,
            daily.mf.spares
        );
        assert!(hourly.lb.spares <= daily.lb.spares);
    }

    #[test]
    fn component_level_cheaper_than_server_level_under_mf() {
        let out = sim();
        let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = provision_components(&out, Workload::W1, &params).unwrap();
        assert!(
            r.component_level.mf < r.server_level.mf,
            "component {} < server {}",
            r.component_level.mf,
            r.server_level.mf
        );
        // Normalization helper.
        let pct = r.as_pct_of_fleet_cost(r.server_level.sf);
        assert!(pct > 0.0 && pct < 100.0, "pct {pct}");
    }

    #[test]
    fn tco_savings_positive_when_mf_beats_sf() {
        let out = sim();
        let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = provision_servers(&out, Workload::W6, &params).unwrap();
        let savings = tco_savings(&r, &TcoModel::default());
        assert!(savings >= 0.0, "savings {savings}");
    }

    #[test]
    fn unknown_workload_racks_error() {
        let out = sim();
        let params = ProvisionParams::new(2.0, TimeGranularity::Daily);
        assert!(matches!(
            provision_servers(&out, Workload::W1, &params),
            Err(AnalysisError::InvalidParameter { .. })
        ));
    }
}
