//! Per-layer replay for the traced run.
//!
//! After the traced workload iteration, each layer's public entry point is
//! called once on the workload's own fleet and timed from outside; calls
//! with an `*_alloc_mb` metric run once more with the counting allocator
//! on. The `dcsim.*` sub-stage times come from the simulator's own
//! `rainshine-obs` stages; nothing here adds spans inside the program.

use std::time::Instant;

use rainshine_bench::{ExperimentContext, ALL_EXPERIMENTS};
use rainshine_cart::dataset::CartDataset;
use rainshine_cart::pdp::stratified_effect_nominal;
use rainshine_cart::tree::Tree;
use rainshine_conformance::oracle::standard_oracles;
use rainshine_conformance::{Obs, Scenario, SeedRun};
use rainshine_core::dataset::{rack_day_table, FaultFilter};
use rainshine_core::predict::{predict_failures, PredictionConfig};
use rainshine_core::q1::{provision_components, provision_servers, ProvisionParams};
use rainshine_core::q2::{mf_comparison, sf_comparison, MF_CONTROLS};
use rainshine_core::{q3, AnalysisError};
use rainshine_dcsim::{corruption, Simulation};
use rainshine_telemetry::ids::{Sku, Workload as AppWorkload};
use rainshine_telemetry::metrics::{lambda, mu, SpatialGranularity};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc::{self, AllocStats};
use crate::{secs, ArtifactRun, Metrics, Workload, SCENARIO};

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Times one call, then repeats it untimed with the counting allocator on.
/// Counting adds work to every allocation (a paper-scale simulation makes
/// 46 million), so it never overlaps a timed call.
fn counted<T>(mut f: impl FnMut() -> T) -> (T, f64, AllocStats) {
    let (out, s) = timed(&mut f);
    let (_, a) = alloc::measure(f);
    (out, s, a)
}

fn put_allocs(m: &mut Metrics, prefix: &str, a: AllocStats) {
    m.put(format!("{prefix}_alloc_mb"), a.mib(), "MiB");
    m.put(format!("{prefix}_allocs"), a.calls as f64, "count");
}

fn analysis<T>(r: Result<T, AnalysisError>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// The `full` scenario, moved onto the workload's own fleet: paper
/// workloads get its claims and oracles at paper scale, with their
/// corruption rate and table stride.
fn scenario_for(workload: Workload, stride: usize) -> Result<Scenario, String> {
    let text =
        std::fs::read_to_string(SCENARIO).map_err(|e| format!("cannot read {SCENARIO}: {e}"))?;
    let mut scenario = Scenario::from_json(&text).map_err(|e| format!("{SCENARIO}: {e}"))?;
    if workload != Workload::SeedSweep {
        scenario.scale = workload.scale().name().to_string();
        scenario.day_stride = stride;
        scenario.effects.corruption_rate = workload.corruption_rate();
    }
    Ok(scenario)
}

/// Replays every layer on `artifacts`' fleet and appends the per-layer
/// metrics. `oracles_s` is the oracle suite's time when the workload
/// already ran it.
pub(crate) fn layers(
    workload: Workload,
    seed: u64,
    artifacts: ArtifactRun,
    oracles_s: Option<f64>,
    m: &mut Metrics,
) -> Result<(), String> {
    let ArtifactRun { ctx, setup, wall, per_artifact, errors, .. } = artifacts;
    if !errors.is_empty() {
        return Err(format!("replayed artifacts failed: {errors:?}"));
    }
    experiments(m, setup, wall, &per_artifact);
    dcsim(m, &ctx, seed)?;
    analyses(m, &ctx)?;
    conformance(m, workload, seed, &ctx, oracles_s)
}

fn experiments(m: &mut Metrics, setup: f64, wall: f64, per_artifact: &[f64]) {
    for (id, s) in ALL_EXPERIMENTS.iter().zip(per_artifact) {
        m.put(format!("experiment.{id}_s"), *s, "s");
    }
    m.put("experiment.setup_s", setup, "s");
    m.put("experiment.wall_s", wall, "s");
    m.put("experiment.residual_s", wall - setup - per_artifact.iter().sum::<f64>(), "s");
}

fn dcsim(m: &mut Metrics, ctx: &ExperimentContext, seed: u64) -> Result<(), String> {
    let config = ctx.output.config.clone();
    let obs = Obs::enabled();
    let (output, run_s) = timed(|| Simulation::new(config.clone(), seed).run_with_obs(&obs));
    let allocs = alloc::measure(|| Simulation::new(config.clone(), seed).run()).1;
    if output.tickets != ctx.output.tickets {
        return Err("replayed simulation differs from the workload's fleet".into());
    }
    let snap = obs.snapshot();
    let stage = |name: &str| snap.stages.get(name).map(|s| s.wall_nanos as f64 / 1e9);
    let run_obs = stage("dcsim.run").ok_or("dcsim.run stage missing")?;
    let children: f64 = snap
        .stages
        .iter()
        .filter(|(name, _)| name.starts_with("dcsim.") && name.as_str() != "dcsim.run")
        .map(|(_, s)| s.wall_nanos as f64 / 1e9)
        .sum();
    let corruption_s = match stage("dcsim.corruption") {
        Some(s) => s,
        None => {
            // Clean fleets skip the stage inside `Simulation::run`; time the
            // layer's entry point at the workload's zero rates instead.
            let mut tickets = output.tickets.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let span = (config.start, config.end);
            timed(|| corruption::corrupt_tickets(&mut tickets, &config.corruption, span, &mut rng))
                .1
        }
    };
    m.put("dcsim.run_s", run_s, "s");
    m.put("dcsim.run_self_s", run_obs - children, "s");
    for sub in ["tickets_hardware", "tickets_bursts", "tickets_non_hardware"] {
        m.put(format!("dcsim.{sub}_s"), stage(&format!("dcsim.{sub}")).unwrap_or(0.0), "s");
    }
    m.put("dcsim.corruption_s", corruption_s, "s");
    let rack_days = output.for_each_active_rack_day(1, |_, _, _| {});
    m.put("dcsim.rack_days", rack_days as f64, "count");
    let generated = snap.counters.get("tickets.generated").copied().unwrap_or(0);
    m.put("dcsim.tickets_generated", generated as f64, "count");
    put_allocs(m, "dcsim.run", allocs);

    let q = &output.quality;
    m.put("sanitizer.sanitize_s", stage("dcsim.sanitize").unwrap_or(0.0), "s");
    m.put(
        "sanitizer.repaired",
        q.classes.values().map(|c| c.repaired).sum::<u64>() as f64,
        "count",
    );
    m.put("sanitizer.quarantined", q.total_quarantined() as f64, "count");
    Ok(())
}

fn analyses(m: &mut Metrics, ctx: &ExperimentContext) -> Result<(), String> {
    let stride = ctx.day_stride_pub();
    let cart = ctx.rack_day_cart();
    let output = &ctx.output;

    let (table, s, a) = counted(|| rack_day_table(output, FaultFilter::AllHardware, stride));
    let table = analysis(table, "rack_day_table")?;
    m.put("frame.rack_day_table_s", s, "s");
    m.put("frame.rack_day_rows", table.rows() as f64, "count");
    put_allocs(m, "frame.rack_day_table", a);

    let hw = output.hardware_tickets();
    let (start, end) = (output.config.start, output.config.end);
    let rack = SpatialGranularity::Rack;
    let (hourly, s, a) = counted(|| mu(&hw, rack, TimeGranularity::Hourly, start, end));
    m.put("metrics.mu_hourly_s", s, "s");
    let cells: u64 = hourly.values().map(|series| series.total()).sum();
    m.put("metrics.mu_hourly_cells", cells as f64, "count");
    put_allocs(m, "metrics.mu_hourly", a);
    m.put("metrics.mu_daily_s", timed(|| mu(&hw, rack, TimeGranularity::Daily, start, end)).1, "s");
    let lambda_s = timed(|| lambda(&hw, rack, TimeGranularity::Daily, start, end)).1;
    m.put("metrics.lambda_daily_s", lambda_s, "s");

    let w6 = AppWorkload::W6;
    let hourly = ProvisionParams::new(1.0, TimeGranularity::Hourly);
    let daily = ProvisionParams::new(1.0, TimeGranularity::Daily);
    let (r, s) = timed(|| provision_servers(output, w6, &hourly));
    analysis(r, "provision_servers hourly")?;
    m.put("q1.provision_hourly_s", s, "s");
    let (r, s) = timed(|| provision_servers(output, w6, &daily));
    analysis(r, "provision_servers daily")?;
    m.put("q1.provision_daily_s", s, "s");
    let (r, s) = timed(|| provision_components(output, w6, &daily));
    analysis(r, "provision_components")?;
    m.put("q1.provision_components_s", s, "s");

    let (r, s) = timed(|| mf_comparison(output, &table, &cart));
    analysis(r, "mf_comparison")?;
    m.put("q2.mf_comparison_s", s, "s");
    let (r, s) = timed(|| sf_comparison(output, &[Sku::S1, Sku::S2, Sku::S3, Sku::S4]));
    analysis(r, "sf_comparison")?;
    m.put("q2.sf_comparison_s", s, "s");
    let disk = analysis(
        rack_day_table(
            output,
            FaultFilter::Component(rainshine_telemetry::rma::HardwareFault::Disk),
            stride,
        ),
        "disk table",
    )?;
    let dc1 = analysis(q3::dc_subset(&disk, "DC1"), "dc_subset")?;
    let (r, s) = timed(|| q3::env_analysis("DC1", &dc1, &cart));
    analysis(r, "env_analysis")?;
    m.put("q3.env_analysis_s", s, "s");
    let (r, s) = timed(|| q3::disk_rate_by_temperature(output, stride));
    analysis(r, "disk_rate_by_temperature")?;
    m.put("q3.disk_rate_by_temperature_s", s, "s");
    let (r, s) = timed(|| predict_failures(output, &PredictionConfig::default()));
    analysis(r, "predict_failures")?;
    m.put("predict.predict_failures_s", s, "s");

    let (r, s) = timed(|| {
        CartDataset::regression(&table, columns::FAILURE_RATE, MF_CONTROLS)
            .and_then(|ds| Tree::fit(&ds, &cart))
    });
    r.map_err(|e| format!("tree fit: {e}"))?;
    m.put("cart.tree_fit_s", s, "s");
    let (r, s) = timed(|| {
        stratified_effect_nominal(&table, columns::FAILURE_RATE, columns::SKU, MF_CONTROLS, &cart)
    });
    r.map_err(|e| format!("stratified effect: {e}"))?;
    m.put("cart.stratified_effect_s", s, "s");
    Ok(())
}

fn conformance(
    m: &mut Metrics,
    workload: Workload,
    seed: u64,
    ctx: &ExperimentContext,
    oracles_s: Option<f64>,
) -> Result<(), String> {
    let scenario = scenario_for(workload, ctx.day_stride_pub())?;
    let (run, s) = timed(|| SeedRun::new(&scenario, seed));
    let run = run.map_err(|e| format!("seed run: {e}"))?;
    if run.output.tickets != ctx.output.tickets {
        return Err("the scenario's fleet differs from the workload's fleet".into());
    }
    m.put("conformance.seed_sim_s", s, "s");
    let (measurements, s) =
        timed(|| scenario.claims.iter().map(|c| run.evaluate(&c.claim)).collect::<Vec<_>>());
    if let Some(bad) = measurements.iter().find(|r| r.error) {
        return Err(format!("claim evaluation errored: {}", bad.detail));
    }
    m.put("conformance.claims_s", s, "s");
    let oracles_s = match oracles_s {
        Some(s) => s,
        None => {
            let (r, s) = timed(|| standard_oracles(&scenario, seed));
            r.map_err(|e| format!("oracles: {e}"))?;
            s
        }
    };
    m.put("conformance.oracles_s", oracles_s, "s");
    Ok(())
}
