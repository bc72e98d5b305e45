//! Failure-metric aggregation cost: λ and μ at the spatial × temporal
//! granularities the analyses use, including the daily-vs-hourly ablation
//! (finer windows are what Fig. 12's multiplexing costs to compute).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rainshine_dcsim::{FleetConfig, Simulation, SimulationOutput};
use rainshine_telemetry::metrics::{lambda, mu, SpatialGranularity};
use rainshine_telemetry::time::TimeGranularity;

fn sim() -> SimulationOutput {
    Simulation::new(FleetConfig::medium(), 42).run()
}

fn bench_lambda(c: &mut Criterion) {
    let out = sim();
    let tickets = out.hardware_tickets();
    let mut group = c.benchmark_group("lambda");
    for (name, granularity) in
        [("daily", TimeGranularity::Daily), ("hourly", TimeGranularity::Hourly)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), &granularity, |b, &g| {
            b.iter(|| {
                lambda(&tickets, SpatialGranularity::Rack, g, out.config.start, out.config.end)
            })
        });
    }
    group.finish();
}

fn bench_mu_granularity_ablation(c: &mut Criterion) {
    let out = sim();
    let tickets = out.hardware_tickets();
    let mut group = c.benchmark_group("mu");
    for (name, granularity) in [
        ("daily", TimeGranularity::Daily),
        ("hourly", TimeGranularity::Hourly),
        ("weekly", TimeGranularity::Weekly),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &granularity, |b, &g| {
            b.iter(|| mu(&tickets, SpatialGranularity::Rack, g, out.config.start, out.config.end))
        });
    }
    group.finish();
}

fn bench_spatial_granularities(c: &mut Criterion) {
    let out = sim();
    let tickets = out.hardware_tickets();
    let mut group = c.benchmark_group("lambda_spatial");
    for (name, spatial) in [
        ("datacenter", SpatialGranularity::Datacenter),
        ("rack", SpatialGranularity::Rack),
        ("server", SpatialGranularity::Server),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &spatial, |b, &s| {
            b.iter(|| lambda(&tickets, s, TimeGranularity::Daily, out.config.start, out.config.end))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lambda, bench_mu_granularity_ablation, bench_spatial_granularities);
criterion_main!(benches);
